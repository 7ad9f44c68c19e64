// cloak imports trace (its bank is a trace sink), so these tests, which
// drive cloak engines, live in an external test package.
package trace_test

import (
	"bytes"
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

func record(t *testing.T) *trace.Trace {
	t.Helper()
	w, _ := workload.ByAbbrev("per")
	tr, err := trace.Record(w.Program(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRecordMatchesDirectObservation(t *testing.T) {
	w, _ := workload.ByAbbrev("per")
	tr := record(t)

	var direct []trace.Event
	s := funcsim.New(w.Program(4))
	s.OnLoad = func(e funcsim.MemEvent) {
		direct = append(direct, trace.Event{Kind: trace.KindLoad, PC: e.PC, Addr: e.Addr, Value: e.Value})
	}
	s.OnStore = func(e funcsim.MemEvent) {
		direct = append(direct, trace.Event{Kind: trace.KindStore, PC: e.PC, Addr: e.Addr, Value: e.Value})
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(tr.Events) {
		t.Fatalf("event count: %d vs %d", len(direct), len(tr.Events))
	}
	for i := range direct {
		if direct[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, direct[i], tr.Events[i])
		}
	}
	if tr.Insts != s.Counts.Insts {
		t.Errorf("insts: %d vs %d", tr.Insts, s.Counts.Insts)
	}
}

// TestReplayEqualsLive: a replayed stream drives the engine to the
// exact same statistics as live simulation.
func TestReplayEqualsLive(t *testing.T) {
	w, _ := workload.ByAbbrev("gcc")
	tr, err := trace.RecordStream(w.Program(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	replayed := cloak.New(cloak.DefaultConfig())
	tr.Replay(engineSink(replayed))

	live := cloak.New(cloak.DefaultConfig())
	s := funcsim.New(w.Program(4))
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
	tr, err := trace.RecordStream(w.Program(4), 0)
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

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := record(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wantSize := 4 + 16 + 13*len(tr.Events)
	if buf.Len() != wantSize {
		t.Errorf("encoded size %d, want %d", buf.Len(), wantSize)
	}
	got, err := trace.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Insts != tr.Insts || len(got.Events) != len(tr.Events) {
		t.Fatalf("header mismatch: %d/%d vs %d/%d",
			got.Insts, len(got.Events), tr.Insts, len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a trace"),
		{'R', 'A', 'R', 9, 0, 0, 0, 0}, // wrong version
	}
	for _, c := range cases {
		if _, err := trace.Load(bytes.NewReader(c)); err == nil {
			t.Errorf("Load(%q) succeeded", c)
		}
	}
	// Truncated body.
	tr := record(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := trace.Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
	// Implausible count.
	hdr := append([]byte{}, buf.Bytes()[:20]...)
	for i := 12; i < 20; i++ {
		hdr[i] = 0xff
	}
	if _, err := trace.Load(bytes.NewReader(hdr)); err == nil {
		t.Error("implausible event count accepted")
	}
}

func TestLoadsCounter(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{
		{Kind: trace.KindLoad}, {Kind: trace.KindStore}, {Kind: trace.KindLoad},
	}}
	if tr.Loads() != 2 {
		t.Errorf("Loads() = %d", tr.Loads())
	}
}
