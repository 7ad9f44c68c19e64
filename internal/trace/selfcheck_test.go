package trace

import (
	"strings"
	"testing"

	"rarpred/internal/check"
)

// appendRaw adds one event to s as Append does, but never seals: a full
// tail chunk is followed by a new raw one. Tests build raw streams with
// it, to corrupt chunk internals directly (which only exist unsealed)
// and as the oracle a sealed stream's replay must match.
func appendRaw(s *Stream, kind Kind, pc, addr, value uint32) {
	if k := len(s.chunks); k == 0 || len(s.chunks[k-1].kinds) == chunkEvents {
		s.chunks = append(s.chunks, newChunk())
	}
	c := s.chunks[len(s.chunks)-1]
	c.kinds = append(c.kinds, uint8(kind))
	c.pcs = append(c.pcs, pc)
	c.addrs = append(c.addrs, addr)
	c.values = append(c.values, value)
	s.n++
	if kind == KindLoad {
		s.loads++
	}
}

// buildStream returns an n-event stream of raw chunks throughout.
func buildStream(n int) *Stream {
	s := NewStream()
	for i := 0; i < n; i++ {
		kind := KindLoad
		if i%3 == 0 {
			kind = KindStore
		}
		appendRaw(s, kind, uint32(i)<<2, uint32(i%64), uint32(i*7))
	}
	s.Counts.Loads = s.loads
	s.Counts.Stores = uint64(s.n) - s.loads
	s.Counts.Insts = uint64(s.n)
	return s
}

func TestStreamInvariantsClean(t *testing.T) {
	for _, n := range []int{0, 1, chunkEvents, chunkEvents + 1, 3 * chunkEvents} {
		buildStream(n).CheckInvariants()
	}
}

func TestStreamInvariantsCatchCorruption(t *testing.T) {
	s := buildStream(chunkEvents + 10)
	s.chunks[0].kinds = s.chunks[0].kinds[:chunkEvents-1] // interior chunk no longer full
	if v := check.Catch(func() { s.CheckInvariants() }); v == nil || v.Site != "stream.chunk" {
		t.Fatalf("short interior chunk not caught: %v", v)
	}

	s = buildStream(100)
	s.n++ // tally drifts from the chunks
	if v := check.Catch(func() { s.CheckInvariants() }); v == nil || v.Site != "stream.counts" {
		t.Fatalf("event-count drift not caught: %v", v)
	}

	s = buildStream(100)
	s.chunks[0].kinds[5] = 9
	if v := check.Catch(func() { s.CheckInvariants() }); v == nil || v.Site != "stream.kind" {
		t.Fatalf("bad kind not caught: %v", v)
	}
}

func TestDiffStreams(t *testing.T) {
	a, b := buildStream(chunkEvents+50), buildStream(chunkEvents+50)
	if err := DiffStreams(a, b); err != nil {
		t.Fatalf("identical streams diff: %v", err)
	}
	b.chunks[1].values[7]++
	err := DiffStreams(a, b)
	if err == nil || !strings.Contains(err.Error(), "event 65543") {
		t.Fatalf("value divergence not located: %v", err)
	}
	c := buildStream(10)
	if err := DiffStreams(a, c); err == nil {
		t.Fatal("size divergence not reported")
	}
}

// recordingSink tallies what it sees, walking each chunk's columns
// itself.
type recordingSink struct{ loads, stores int }

func (r *recordingSink) WalkChunk(kinds []uint8, _, _, _ []uint32) {
	for _, k := range kinds {
		if Kind(k) == KindLoad {
			r.loads++
		} else {
			r.stores++
		}
	}
}

// TestPartialSinkFuncsBothPaths: a SinkFuncs with only one callback set
// means "skip the other kind", whether it is a replay's only sink or
// one of several next to a sink that walks the columns itself.
func TestPartialSinkFuncsBothPaths(t *testing.T) {
	s := buildStream(300)
	wantLoads, wantStores := int(s.loads), s.n-int(s.loads)

	var loads, stores int
	loadOnly := SinkFuncs{OnLoad: func(pc, addr, value uint32) { loads++ }}
	storeOnly := SinkFuncs{OnStore: func(pc, addr, value uint32) { stores++ }}

	s.Replay(loadOnly)
	if loads != wantLoads {
		t.Errorf("one sink: load-only sink saw %d loads, want %d", loads, wantLoads)
	}

	loads, stores = 0, 0
	full := &recordingSink{}
	s.Replay(loadOnly, storeOnly, full)
	if loads != wantLoads || stores != wantStores {
		t.Errorf("three sinks: partial sinks saw %d/%d, want %d/%d", loads, stores, wantLoads, wantStores)
	}
	if full.loads != wantLoads || full.stores != wantStores {
		t.Errorf("three sinks: column sink saw %d/%d, want %d/%d",
			full.loads, full.stores, wantLoads, wantStores)
	}
}
