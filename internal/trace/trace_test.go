// cloak imports trace (its bank is a trace sink), so these tests, which
// drive cloak engines, live in an external test package.
package trace_test

import (
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/funcsim"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// engineSink adapts a cloaking engine to the Sink interface.
func engineSink(e *cloak.Engine) trace.Sink {
	return trace.SinkFuncs{
		OnLoad:  func(pc, addr, value uint32) { e.Load(pc, addr, value) },
		OnStore: e.Store,
	}
}

// event is one committed access as the interpreter's hooks report it.
type event struct {
	kind            trace.Kind
	pc, addr, value uint32
}

// eventLog collects a replayed stream's events in order.
type eventLog []event

func (l *eventLog) WalkChunk(kinds []uint8, pcs, addrs, values []uint32) {
	for i, k := range kinds {
		*l = append(*l, event{trace.Kind(k), pcs[i], addrs[i], values[i]})
	}
}

// TestRecordMatchesDirectObservation: replaying a recording yields
// exactly the events the interpreter's hooks observe, in commit order,
// and the recording counts the same instructions.
func TestRecordMatchesDirectObservation(t *testing.T) {
	w, _ := workload.ByAbbrev("per")
	s, err := trace.RecordStream(w.Assemble(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	var replayed eventLog
	s.Replay(&replayed)

	var direct []event
	sim := funcsim.New(w.Assemble(4))
	sim.OnLoad = func(e funcsim.MemEvent) {
		direct = append(direct, event{trace.KindLoad, e.PC, e.Addr, e.Value})
	}
	sim.OnStore = func(e funcsim.MemEvent) {
		direct = append(direct, event{trace.KindStore, e.PC, e.Addr, e.Value})
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(replayed) {
		t.Fatalf("event count: %d vs %d", len(direct), len(replayed))
	}
	for i := range direct {
		if direct[i] != replayed[i] {
			t.Fatalf("event %d: %+v vs %+v", i, direct[i], replayed[i])
		}
	}
	if s.Counts.Insts != sim.Counts.Insts {
		t.Errorf("insts: %d vs %d", s.Counts.Insts, sim.Counts.Insts)
	}
}

// TestReplayEqualsLive: a replayed stream drives the engine to the
// exact same statistics as live simulation.
func TestReplayEqualsLive(t *testing.T) {
	w, _ := workload.ByAbbrev("gcc")
	tr, err := trace.RecordStream(w.Assemble(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	replayed := cloak.New(cloak.DefaultConfig())
	tr.Replay(engineSink(replayed))

	live := cloak.New(cloak.DefaultConfig())
	s := funcsim.New(w.Assemble(4))
	s.OnLoad = func(e funcsim.MemEvent) { live.Load(e.PC, e.Addr, e.Value) }
	s.OnStore = func(e funcsim.MemEvent) { live.Store(e.PC, e.Addr, e.Value) }
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if replayed.Stats() != live.Stats() {
		t.Errorf("replay diverged:\n%+v\n%+v", replayed.Stats(), live.Stats())
	}
}

// TestReplayFanOut: one stream drives several engines in one replay.
func TestReplayFanOut(t *testing.T) {
	w, _ := workload.ByAbbrev("per")
	tr, err := trace.RecordStream(w.Assemble(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := cloak.New(cloak.Config{DDTCapacity: 128, Mode: cloak.ModeRAW, Confidence: cloak.Adaptive2Bit})
	both := cloak.New(cloak.DefaultConfig())
	tr.Replay(engineSink(raw), engineSink(both))
	if raw.Stats().Loads != both.Stats().Loads {
		t.Error("sinks saw different event counts")
	}
	if both.Stats().Covered() < raw.Stats().Covered() {
		t.Error("RAW+RAR covered less than RAW on the same trace")
	}
}
