package trace

import (
	"strings"
	"testing"

	"rarpred/internal/check"
)

func buildStream(n int) *Stream {
	s := NewStream()
	// Raw chunks throughout: these tests corrupt and compare chunk
	// internals directly, which only exist unsealed.
	s.compress = false
	for i := 0; i < n; i++ {
		kind := KindLoad
		if i%3 == 0 {
			kind = KindStore
		}
		s.Append(kind, uint32(i)<<2, uint32(i%64), uint32(i*7))
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

func TestCacheInvariantsClean(t *testing.T) {
	c := NewCache(4 * 900 * 1024)
	for i := 0; i < 6; i++ {
		key := Key{Workload: "w", Size: i}
		if _, err := c.Get(key, func() (*Stream, error) { return buildStream(3), nil }); err != nil {
			t.Fatal(err)
		}
		c.CheckInvariants()
	}
	c.Retain(Key{Workload: "w", Size: 0})
	c.CheckInvariants()
	c.Release(Key{Workload: "w", Size: 0})
	c.Drop(Key{Workload: "w", Size: 1})
	c.CheckInvariants()
}

func TestCacheInvariantsCatchAccountingDrift(t *testing.T) {
	c := NewCache(0)
	if _, err := c.Get(Key{Workload: "w"}, func() (*Stream, error) { return buildStream(3), nil }); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.bytes.Add(13)
	c.mu.Unlock()
	if v := check.Catch(func() { c.CheckInvariants() }); v == nil || v.Site != "cache.bytes" {
		t.Fatalf("byte-accounting drift not caught: %v", v)
	}
}

func TestCacheInvariantsCatchBadPin(t *testing.T) {
	c := NewCache(0)
	c.mu.Lock()
	c.pins[Key{Workload: "w"}] = 0 // refcount that should have been deleted
	c.mu.Unlock()
	if v := check.Catch(func() { c.CheckInvariants() }); v == nil || v.Site != "cache.pins" {
		t.Fatalf("zero pin refcount not caught: %v", v)
	}
}

// recordingSink tallies what it sees, for the nil-callback replay tests.
type recordingSink struct{ loads, stores int }

func (r *recordingSink) Load(pc, addr, value uint32)  { r.loads++ }
func (r *recordingSink) Store(pc, addr, value uint32) { r.stores++ }

// TestPartialSinkFuncsBothPaths: a SinkFuncs with only one callback set
// means "skip the other kind" on both replay paths — the unwrapped
// single-sink fast path and the multi-sink lockstep path.
func TestPartialSinkFuncsBothPaths(t *testing.T) {
	s := buildStream(300)
	wantLoads, wantStores := int(s.loads), s.n-int(s.loads)

	var loads, stores int
	loadOnly := SinkFuncs{OnLoad: func(pc, addr, value uint32) { loads++ }}
	storeOnly := SinkFuncs{OnStore: func(pc, addr, value uint32) { stores++ }}

	s.Replay(loadOnly) // single sink → ReplayChunks fast path
	if loads != wantLoads {
		t.Errorf("fast path: load-only sink saw %d loads, want %d", loads, wantLoads)
	}

	loads, stores = 0, 0
	full := &recordingSink{}
	s.Replay(loadOnly, storeOnly, full) // multi-sink lockstep path
	if loads != wantLoads || stores != wantStores {
		t.Errorf("multi-sink: partial sinks saw %d/%d, want %d/%d", loads, stores, wantLoads, wantStores)
	}
	if full.loads != wantLoads || full.stores != wantStores {
		t.Errorf("multi-sink: interface sink saw %d/%d, want %d/%d",
			full.loads, full.stores, wantLoads, wantStores)
	}
}
