package trace

import (
	"testing"

	"rarpred/internal/funcsim"
	"rarpred/internal/workload"
)

func TestStreamAppendReplay(t *testing.T) {
	s := NewStream()
	// Cross a chunk boundary so the multi-chunk walk is exercised.
	const n = chunkEvents + chunkEvents/2
	for i := 0; i < n; i++ {
		kind := KindStore
		if i%3 == 0 {
			kind = KindLoad
		}
		s.Append(kind, uint32(i), uint32(i)*4, ^uint32(i))
	}
	if s.Len() != n {
		t.Fatalf("Len() = %d, want %d", s.Len(), n)
	}
	wantLoads := uint64((n + 2) / 3)
	if s.Loads() != wantLoads {
		t.Errorf("Loads() = %d, want %d", s.Loads(), wantLoads)
	}
	// Appending seals full chunks as it rolls over (when compression is
	// on), so a multi-chunk stream's resident size is well under the raw
	// layout's; the raw payload tally is exact either way.
	if want := int64(n) * eventBytes; s.RawBytes() != want {
		t.Errorf("RawBytes() = %d, want %d", s.RawBytes(), want)
	}
	if s.compress {
		if raw := int64(2) * chunkEvents * eventBytes; s.Bytes() >= raw {
			t.Errorf("Bytes() = %d, want < %d (sealed chunk should compress)", s.Bytes(), raw)
		}
	} else if want := int64(2) * chunkEvents * eventBytes; s.Bytes() != want {
		t.Errorf("Bytes() = %d, want %d (2 full chunks)", s.Bytes(), want)
	}

	var i int
	check := func(kind Kind) func(pc, addr, value uint32) {
		return func(pc, addr, value uint32) {
			wantKind := KindStore
			if i%3 == 0 {
				wantKind = KindLoad
			}
			if kind != wantKind || pc != uint32(i) || addr != uint32(i)*4 || value != ^uint32(i) {
				t.Fatalf("event %d: got kind=%d pc=%d addr=%d value=%d", i, kind, pc, addr, value)
			}
			i++
		}
	}
	s.Replay(SinkFuncs{OnLoad: check(KindLoad), OnStore: check(KindStore)})
	if i != n {
		t.Errorf("replayed %d events, want %d", i, n)
	}
}

// TestStreamFanOutOrder: Replay is chunk-major. Each sink sees every
// event in recorded order; within a chunk the sinks run in argument
// order; and no sink sees chunk k+1 until every sink has finished
// chunk k.
func TestStreamFanOutOrder(t *testing.T) {
	s := NewStream()
	const n, sinks = 2*chunkEvents + 100, 3
	for i := 0; i < n; i++ {
		kind := KindLoad
		if i%3 == 1 {
			kind = KindStore
		}
		s.Append(kind, uint32(i), 0, 0)
	}
	s.Seal()

	// run is one stretch of consecutive events delivered to one sink.
	type run struct {
		sink        int
		first, last uint32
	}
	var got []run
	mk := func(id int) Sink {
		on := func(pc, _, _ uint32) {
			if k := len(got) - 1; k >= 0 && got[k].sink == id && got[k].last+1 == pc {
				got[k].last = pc
				return
			}
			got = append(got, run{id, pc, pc})
		}
		return SinkFuncs{OnLoad: on, OnStore: on}
	}
	all := make([]Sink, sinks)
	for id := range all {
		all[id] = mk(id)
	}
	s.Replay(all...)

	var want []run
	for lo := 0; lo < n; lo += chunkEvents {
		hi := min(lo+chunkEvents, n)
		for id := 0; id < sinks; id++ {
			want = append(want, run{id, uint32(lo), uint32(hi - 1)})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d runs %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReplayChunks: a stream holds one chunk per chunkEvents events,
// the last one partial, and Replay walks every chunk in recorded order.
func TestReplayChunks(t *testing.T) {
	s := NewStream()
	const n = 2*chunkEvents + 7
	for i := 0; i < n; i++ {
		s.Append(KindLoad, uint32(i), 0, 0)
	}
	if s.NumChunks() != 3 {
		t.Fatalf("NumChunks() = %d, want 3", s.NumChunks())
	}
	var pcs []uint32
	s.Replay(SinkFuncs{
		OnLoad:  func(pc, _, _ uint32) { pcs = append(pcs, pc) },
		OnStore: func(pc, _, _ uint32) { t.Error("store in a load-only stream") },
	})
	if len(pcs) != n {
		t.Fatalf("replay saw %d events, want %d", len(pcs), n)
	}
	for i, pc := range pcs {
		if pc != uint32(i) {
			t.Fatalf("event %d out of order: pc %d", i, pc)
		}
	}
}

// TestReplayCountsEventsOncePerCall: trace.events_replayed grows by the
// events each Replay call decodes, counted once per call however many
// sinks it feeds, and a Replay with no sinks decodes nothing.
func TestReplayCountsEventsOncePerCall(t *testing.T) {
	s := NewStream()
	const n = 2*chunkEvents + 7
	for i := 0; i < n; i++ {
		s.Append(KindLoad, uint32(i), 0, 0)
	}
	s.Seal()
	snk := SinkFuncs{}
	for _, c := range []struct {
		name   string
		replay func()
		want   uint64
	}{
		{"no sinks", func() { s.Replay() }, 0},
		{"one sink", func() { s.Replay(snk) }, n},
		{"three sinks", func() { s.Replay(snk, snk, snk) }, n},
	} {
		before := EventsReplayed.Value()
		c.replay()
		if got := EventsReplayed.Value() - before; got != c.want {
			t.Errorf("%s: trace.events_replayed grew by %d, want %d", c.name, got, c.want)
		}
	}
}

// TestReplayEach: each of several sinks sees the full multi-chunk stream
// in recorded order through one Replay.
func TestReplayEach(t *testing.T) {
	s := NewStream()
	const n = chunkEvents + 100
	for i := 0; i < n; i++ {
		kind := KindStore
		if i%2 == 0 {
			kind = KindLoad
		}
		s.Append(kind, uint32(i), 0, 0)
	}
	const sinks = 4
	counts := make([]int, sinks)
	ordered := make([]bool, sinks)
	all := make([]Sink, sinks)
	for i := 0; i < sinks; i++ {
		i := i
		next := uint32(0)
		ordered[i] = true
		on := func(pc, _, _ uint32) {
			if pc != next {
				ordered[i] = false
			}
			next++
			counts[i]++
		}
		all[i] = SinkFuncs{OnLoad: on, OnStore: on}
	}
	s.Replay(all...)
	for i := 0; i < sinks; i++ {
		if counts[i] != n {
			t.Errorf("sink %d saw %d events, want %d", i, counts[i], n)
		}
		if !ordered[i] {
			t.Errorf("sink %d saw events out of order", i)
		}
	}
}

// TestRecordStreamMatchesRecord: the recorder's stream holds exactly
// the events the interpreter's hooks observe, in commit order, and the
// run's execution profile.
func TestRecordStreamMatchesRecord(t *testing.T) {
	w, _ := workload.ByAbbrev("per")
	want := NewStream()
	sim := funcsim.New(w.Program(4))
	sim.OnLoad = func(e funcsim.MemEvent) { want.Append(KindLoad, e.PC, e.Addr, e.Value) }
	sim.OnStore = func(e funcsim.MemEvent) { want.Append(KindStore, e.PC, e.Addr, e.Value) }
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	want.Counts = sim.Counts
	s, err := RecordStream(w.Program(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Truncated {
		t.Error("complete run marked Truncated")
	}
	if err := DiffStreams(s, want); err != nil {
		t.Fatal(err)
	}
}

func TestRecordStreamTruncation(t *testing.T) {
	w, _ := workload.ByAbbrev("per")
	s, err := RecordStream(w.Program(4), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Truncated {
		t.Error("budget-limited run not marked Truncated")
	}
	if s.Counts.Insts != 100 {
		t.Errorf("ran %d insts, want exactly 100", s.Counts.Insts)
	}
}
