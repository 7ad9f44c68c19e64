package trace

import (
	"bytes"
	"testing"
)

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
