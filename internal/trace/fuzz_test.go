package trace

import (
	"bytes"
	"testing"
)

// FuzzStreamRoundTrip builds a stream from arbitrary bytes, checks its
// chunk invariants, and proves the chunk form the store persists
// round-trips: each chunk's PackedChunk, appended to a fresh stream
// with AppendPackedChunk, reproduces every event. A raw chunk encodes
// on the fly and a sealed one copies its payload, and both must yield
// the same bytes.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte("roundtrip"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0, 0xff, 0, 0xff, 1, 0, 0xff, 0})
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

		raw := make([][]byte, s.NumChunks())
		for ci := range raw {
			raw[ci] = s.PackedChunk(ci, nil)
		}
		s.Seal()
		back := NewStream()
		for ci, want := range raw {
			packed := s.PackedChunk(ci, nil)
			if !bytes.Equal(packed, want) {
				t.Fatalf("chunk %d: sealed payload differs from the raw chunk's encoding", ci)
			}
			if err := back.AppendPackedChunk(packed); err != nil {
				t.Fatalf("chunk %d: own payload rejected: %v", ci, err)
			}
		}
		back.CheckInvariants()
		if err := DiffStreams(back, s); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}
