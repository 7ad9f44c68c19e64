package pipeline

import (
	"strings"
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// TestWalkMatchesLivePerSim: one walk times Sims of one cloak config
// that differ in everything else a Config holds (memory speculation,
// recovery, an instruction budget that ends mid-step, sampling), two at
// a time, and each Sim's Result equals its own live run's.
func TestWalkMatchesLivePerSim(t *testing.T) {
	w, ok := workload.ByAbbrev("tom")
	if !ok {
		t.Fatal("unknown workload tom")
	}
	prog := w.Program(4)
	is, err := trace.RecordIStream(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc := cloak.TimingConfig(cloak.ModeRAWRAR)
	var cfgs []Config
	for _, edit := range []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.MemSpec, c.Recovery = StoreSets, Squash },
		func(c *Config) { c.MemSpec, c.Recovery = NoSpec, Oracle },
		func(c *Config) { c.MaxInsts = stepInsts + 1000 },
		func(c *Config) { c.SampleRatio, c.ObservationSize = 2, 5000 },
	} {
		cfg := benchConfig()
		cfg.Cloak = &cc
		edit(&cfg)
		cfgs = append(cfgs, cfg)
	}
	sims := make([]*Sim, len(cfgs))
	for i, cfg := range cfgs {
		sims[i] = NewReplay(prog, is, cfg)
	}
	res, errs := Walk(sims, 2)
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("config %d: %v", i, errs[i])
		}
		live, err := RunProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res[i] != live {
			t.Errorf("config %d: walked Result differs from the live run:\n got %+v\nwant %+v", i, res[i], live)
		}
	}
	if res[3].Insts != stepInsts+1000 {
		t.Errorf("budgeted Sim committed %d instructions, want %d", res[3].Insts, stepInsts+1000)
	}
}

// TestWalkFailsOnABrokenStream: a stream whose memory plane runs short,
// or whose instruction plane leaves the text, fails every Sim of the
// walk with an error that names the PC.
func TestWalkFailsOnABrokenStream(t *testing.T) {
	w, ok := workload.ByAbbrev("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	prog := w.Program(3)
	good, err := trace.RecordIStream(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	// copyStream copies good, dropping the last memory record and, with
	// badIdx, making the last instruction's index point past the text.
	copyStream := func(badIdx bool) *trace.IStream {
		out := trace.NewIStream()
		cur := good.Cursor()
		for i := uint64(0); i < good.Len(); i++ {
			idx, next, _ := cur.NextInst()
			if badIdx && i == good.Len()-1 {
				idx = uint32(len(prog.Insts))
			}
			out.AppendInst(idx, next)
		}
		for i := uint64(0); i+1 < good.MemEvents(); i++ {
			addr, value, _ := cur.NextMem()
			out.AppendMem(addr, value)
		}
		return out
	}
	for _, c := range []struct {
		name, want string
		is         *trace.IStream
	}{
		{"short memory plane", "out of memory events at PC", copyStream(false)},
		{"index past the text", "outside text", copyStream(true)},
	} {
		sims := []*Sim{NewReplay(prog, c.is, DefaultConfig()), NewReplay(prog, c.is, DefaultConfig())}
		_, errs := Walk(sims, 2)
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: Sim %d failed with %v, want an error containing %q", c.name, i, err, c.want)
			}
		}
	}
}

// TestWalkRejectsMixedCloakConfigs: one walk runs one engine, so Sims of
// different cloak configs cannot share it.
func TestWalkRejectsMixedCloakConfigs(t *testing.T) {
	w, _ := workload.ByAbbrev("gcc")
	prog := w.Program(3)
	is, err := trace.RecordIStream(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := cloak.TimingConfig(cloak.ModeRAW)
	cloaked := DefaultConfig()
	cloaked.Cloak = &raw
	defer func() {
		if recover() == nil {
			t.Error("Walk accepted a base and a cloaked Sim")
		}
	}()
	Walk([]*Sim{NewReplay(prog, is, DefaultConfig()), NewReplay(prog, is, cloaked)}, 1)
}

// TestFanOutReraisesPanics: a panic in any call reaches the caller's
// goroutine, after every other call has returned.
func TestFanOutReraisesPanics(t *testing.T) {
	for _, limit := range []int{1, 2, 4} {
		ran := make([]bool, 6)
		got := func() (p any) {
			defer func() { p = recover() }()
			fanOut(len(ran), limit, func(i int) {
				ran[i] = true
				if i == 3 {
					panic("sim exploded")
				}
			})
			return nil
		}()
		if got != "sim exploded" {
			t.Errorf("limit %d: recovered %v, want the Sim's panic", limit, got)
		}
		// Sequentially the panic ends the loop; otherwise the other
		// goroutines take the calls the panicking one left.
		for i, r := range ran {
			if limit > 1 && !r {
				t.Errorf("limit %d: call %d never ran", limit, i)
			}
		}
	}
}
