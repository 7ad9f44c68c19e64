package pipeline

import (
	"fmt"
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// TestReplayMatchesLive is the core contract of the trace-driven
// pipeline: a simulation fed from a recorded instruction stream must
// produce a Result identical to one driven by the live functional
// interpreter, for every memory-speculation and recovery policy.
func TestReplayMatchesLive(t *testing.T) {
	const size = 4
	memSpecs := []MemSpecPolicy{NoSpec, NaiveSpec, StoreSets}
	recoveries := []RecoveryPolicy{Selective, Squash, Oracle}
	for _, abbrev := range []string{"gcc", "tom"} {
		w, ok := workload.ByAbbrev(abbrev)
		if !ok {
			t.Fatalf("unknown workload %s", abbrev)
		}
		prog := w.Assemble(size)
		is, err := trace.RecordIStream(prog, 0)
		if err != nil {
			t.Fatalf("%s: record: %v", abbrev, err)
		}
		for _, ms := range memSpecs {
			for _, rec := range recoveries {
				name := fmt.Sprintf("%s/%s/%s", abbrev, ms, rec)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cc := cloak.TimingConfig(cloak.ModeRAWRAR)
					cfg.Cloak = &cc
					cfg.Bypassing = true
					cfg.MemSpec = ms
					cfg.Recovery = rec
					live, err := RunProgram(prog, cfg)
					if err != nil {
						t.Fatalf("live: %v", err)
					}
					replay, err := NewReplay(prog, is, cfg).Run()
					if err != nil {
						t.Fatalf("replay: %v", err)
					}
					if replay != live {
						t.Errorf("replay result diverges from live:\n got %+v\nwant %+v", replay, live)
					}
				})
			}
		}
	}
}

// TestReplayMatchesLiveBaseConfig covers the plain base processor (no
// cloaking), which the timing experiments also replay.
func TestReplayMatchesLiveBaseConfig(t *testing.T) {
	w, ok := workload.ByAbbrev("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	prog := w.Assemble(4)
	is, err := trace.RecordIStream(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunProgram(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewReplay(prog, is, DefaultConfig()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if replay != live {
		t.Errorf("replay result diverges from live:\n got %+v\nwant %+v", replay, live)
	}
}

// TestReplayMaxInsts verifies the replay honours Config.MaxInsts the
// same way the live feed does.
func TestReplayMaxInsts(t *testing.T) {
	w, ok := workload.ByAbbrev("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	prog := w.Assemble(4)
	is, err := trace.RecordIStream(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = 10_000
	live, err := RunProgram(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewReplay(prog, is, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if replay != live {
		t.Errorf("replay result diverges from live:\n got %+v\nwant %+v", replay, live)
	}
	if replay.Insts != 10_000 {
		t.Errorf("insts = %d, want 10000", replay.Insts)
	}
}

// benchConfig is the heaviest mechanism configuration (RAW+RAR cloaking
// with bypassing on the speculative base processor) — the per-step cost
// ceiling of the timing model.
func benchConfig() Config {
	cfg := DefaultConfig()
	cc := cloak.TimingConfig(cloak.ModeRAWRAR)
	cfg.Cloak = &cc
	cfg.Bypassing = true
	return cfg
}

// BenchmarkPipeline measures per-instruction timing-model cost under
// both feeds, for one Sim: its own share of the work plus the feed's
// machine and engine, which a walk of several Sims shares among them.
// Steady state must allocate nothing per step: the replay cursor is
// by-value, the live feed reuses the interpreter, and the simulator's
// rings and the walk's columns are sized at construction.
func BenchmarkPipeline(b *testing.B) {
	w, ok := workload.ByAbbrev("gcc")
	if !ok {
		b.Fatal("unknown workload gcc")
	}
	prog := w.Assemble(6)
	cfg := benchConfig()
	b.Run("live", func(b *testing.B) {
		var insts uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := New(prog, cfg)
			b.StartTimer()
			res, err := s.Run()
			if err != nil {
				b.Fatal(err)
			}
			insts = res.Insts
		}
		b.ReportMetric(float64(insts), "insts/run")
	})
	b.Run("replay", func(b *testing.B) {
		is, err := trace.RecordIStream(prog, 0)
		if err != nil {
			b.Fatal(err)
		}
		var insts uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := NewReplay(prog, is, cfg)
			b.StartTimer()
			res, err := s.Run()
			if err != nil {
				b.Fatal(err)
			}
			insts = res.Insts
		}
		b.ReportMetric(float64(insts), "insts/run")
	})
}
