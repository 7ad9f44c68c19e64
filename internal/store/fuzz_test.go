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

// FuzzJournalScan throws arbitrary bytes at the journal scanner: it must
// never panic, and whatever prefix it accepts must stay accepted after
// the torn-tail repair (truncation to the reported offset).
func FuzzJournalScan(f *testing.F) {
	f.Add([]byte("garbage"))
	j := journalHeader(testFP)
	f.Add(j)
	f.Add(append(append([]byte{}, j...), 0x01, 0x02, 0x03))
	f.Fuzz(func(t *testing.T, data []byte) {
		count := 0
		good, err := scanJournal(data, testFP, func(exp, wl string, row []byte) { count++ })
		if err != nil {
			return
		}
		if good > int64(len(data)) {
			t.Fatalf("scan reported %d good bytes of %d", good, len(data))
		}
		recount := 0
		regood, rerr := scanJournal(data[:good], testFP, func(exp, wl string, row []byte) { recount++ })
		if rerr != nil || regood != good || recount != count {
			t.Fatalf("repair-truncated journal rescans differently: %d/%d records, %d/%d bytes, %v",
				recount, count, regood, good, rerr)
		}
	})
}
