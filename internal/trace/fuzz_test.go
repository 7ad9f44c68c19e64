package trace

import (
	"bytes"
	"errors"
	"testing"
)

var errRecording = errors.New("injected recording failure")

// FuzzStreamRoundTrip builds a stream from arbitrary bytes, checks its
// chunk invariants, and proves the binary format round-trips: Stream →
// Trace → Save → Load reproduces every event and the instruction count.
// The same input is also tried directly as a save file; anything Load
// accepts must re-save byte-identically.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte("roundtrip"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("RAR\x01garbage-after-magic"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStream()
		for i := 0; i+3 < len(data); i += 4 {
			kind := KindLoad
			if data[i]&1 == 1 {
				kind = KindStore
			}
			s.Append(kind, uint32(data[i+1])<<2, uint32(data[i+2]), uint32(data[i+3]))
		}
		s.CheckInvariants()

		tr := s.Trace()
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("load of our own save: %v", err)
		}
		if back.Insts != tr.Insts || len(back.Events) != len(tr.Events) {
			t.Fatalf("round trip: %d events/%d insts, want %d/%d",
				len(back.Events), back.Insts, len(tr.Events), tr.Insts)
		}
		for i := range tr.Events {
			if back.Events[i] != tr.Events[i] {
				t.Fatalf("event %d: %+v != %+v", i, back.Events[i], tr.Events[i])
			}
		}

		// Arbitrary bytes as a save file: Load may reject them, but must
		// not accept something it cannot reproduce.
		if alien, err := Load(bytes.NewReader(data)); err == nil {
			var resaved bytes.Buffer
			if err := alien.Save(&resaved); err != nil {
				t.Fatalf("re-save of accepted input: %v", err)
			}
			reload, err := Load(&resaved)
			if err != nil || len(reload.Events) != len(alien.Events) {
				t.Fatalf("accepted input does not round-trip: %v", err)
			}
		}
	})
}

// FuzzCacheOps drives a cache with an arbitrary op sequence (get, drop,
// failed recording, stats) over a small key space, validating the full
// accounting invariant set after every op and that the books return to
// zero once every key is dropped.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte("get-drop-fail"))
	f.Add([]byte{0, 1, 2, 8, 9, 10, 16, 17, 18, 3, 4, 5})
	f.Add([]byte{0x00, 0x20, 0x01, 0x21, 0x04, 0x24, 0x02, 0x22, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache()
		keyOf := func(size int) Key { return Key{Workload: "w", Size: size} }
		for _, b := range data {
			key := keyOf(int(b >> 2 & 3))
			switch b & 3 {
			case 0:
				if _, err := c.Get(key, func() (*Stream, error) { return buildStream(2), nil }); err != nil {
					t.Fatalf("get: %v", err)
				}
			case 1:
				c.Drop(key)
			case 2:
				c.Get(key, func() (*Stream, error) { return nil, errRecording })
			case 3:
				c.Stats()
			}
			c.CheckInvariants()
		}
		for size := 0; size < 4; size++ {
			c.Drop(keyOf(size))
		}
		c.CheckInvariants()
		if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.RawBytes != 0 {
			t.Fatalf("after dropping every key: %+v, want empty books", st)
		}
	})
}
