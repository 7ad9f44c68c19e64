package store

import (
	"errors"
	"testing"

	"rarpred/internal/runerr"
)

// FuzzStoreRoundTrip throws arbitrary bytes at both artifact decoders:
// they must never panic, every rejection must be the typed corruption
// error, and anything accepted must re-encode to bytes that decode to
// the identical stream (no "accepted but unreproducible" states).
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte("not an artifact"))
	f.Add([]byte{})
	f.Add([]byte("RARA"))
	// Valid artifacts of both kinds, plus truncations of each, seed the
	// interesting half of the space.
	stream := EncodeStream(buildStream(97))
	istream := EncodeIStream(buildIStream(61, 23))
	f.Add(stream)
	f.Add(istream)
	f.Add(stream[:len(stream)/2])
	f.Add(istream[:headerBytes])
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := DecodeStream(data); err == nil {
			re := EncodeStream(s)
			back, rerr := DecodeStream(re)
			if rerr != nil {
				t.Fatalf("accepted stream does not round-trip: %v", rerr)
			}
			if back.Len() != s.Len() || back.Loads() != s.Loads() || back.Counts != s.Counts {
				t.Fatalf("stream round trip drifted: %d/%d events", back.Len(), s.Len())
			}
		} else if !errors.Is(err, runerr.ErrStoreCorrupt) {
			t.Fatalf("stream rejection not typed ErrStoreCorrupt: %v", err)
		}
		if s, err := DecodeIStream(data); err == nil {
			re := EncodeIStream(s)
			back, rerr := DecodeIStream(re)
			if rerr != nil {
				t.Fatalf("accepted istream does not round-trip: %v", rerr)
			}
			if back.Len() != s.Len() || back.MemEvents() != s.MemEvents() {
				t.Fatalf("istream round trip drifted")
			}
		} else if !errors.Is(err, runerr.ErrStoreCorrupt) {
			t.Fatalf("istream rejection not typed ErrStoreCorrupt: %v", err)
		}
	})
}
