package pipeline

import (
	"strings"
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// TestWalkMatchesLivePerSim: one walk times base, RAW and RAW+RAR Sims
// that differ in everything else a Sim reads of its Config (memory
// speculation, recovery, an instruction budget that ends mid-step), two
// at a time, and each Sim's Result equals its own live run's. A sampled
// Sim has a machine of its own, so a second walk times it with the same
// check.
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
	raw, rawrar := cloak.TimingConfig(cloak.ModeRAW), cloak.TimingConfig(cloak.ModeRAWRAR)
	configs := func(edits ...func(*Config)) []Config {
		var cfgs []Config
		for _, edit := range edits {
			cfg := benchConfig()
			edit(&cfg)
			cfgs = append(cfgs, cfg)
		}
		return cfgs
	}
	walks := [][]Config{
		configs(
			func(c *Config) {},
			func(c *Config) { c.Cloak = nil },
			func(c *Config) { c.Cloak, c.MemSpec = nil, StoreSets },
			func(c *Config) { c.Cloak, c.MemSpec, c.Recovery = &raw, StoreSets, Squash },
			func(c *Config) { c.MemSpec, c.Recovery = NoSpec, Oracle },
			func(c *Config) { c.Cloak, c.MaxInsts = &raw, stepInsts+1000 },
			func(c *Config) { c.Cloak, c.MaxInsts = &rawrar, stepInsts/2 },
		),
		configs(func(c *Config) { c.SampleRatio, c.ObservationSize = 2, 5000 }),
	}
	for wi, cfgs := range walks {
		sims := make([]*Sim, len(cfgs))
		for i, cfg := range cfgs {
			sims[i] = NewReplay(prog, is, cfg)
		}
		res, errs := Walk(sims, 2)
		for i, cfg := range cfgs {
			if errs[i] != nil {
				t.Fatalf("walk %d, config %d: %v", wi, i, errs[i])
			}
			live, err := RunProgram(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res[i] != live {
				t.Errorf("walk %d, config %d: walked Result differs from the live run:\n got %+v\nwant %+v", wi, i, res[i], live)
			}
			if budget := cfg.MaxInsts; budget != 0 && res[i].Insts != budget {
				t.Errorf("walk %d, config %d: budgeted Sim committed %d instructions, want %d", wi, i, res[i].Insts, budget)
			}
		}
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

// TestWalkRequiresOneMachine: one walk runs one machine, so Sims that
// differ in a field the machine reads (LSQSize, or the sampling
// schedule) cannot share it, while Sims of different cloak configs can.
func TestWalkRequiresOneMachine(t *testing.T) {
	w, _ := workload.ByAbbrev("gcc")
	prog := w.Program(3)
	is, err := trace.RecordIStream(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"LSQSize", func(c *Config) { c.LSQSize = 4 }},
		{"SampleRatio", func(c *Config) { c.SampleRatio = 2 }},
		{"ObservationSize", func(c *Config) { c.ObservationSize = 3000 }},
	} {
		other := DefaultConfig()
		c.edit(&other)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Walk accepted Sims of different %s", c.name)
				}
			}()
			Walk([]*Sim{NewReplay(prog, is, DefaultConfig()), NewReplay(prog, is, other)}, 1)
		}()
	}

	var sims []*Sim
	for _, cc := range []*cloak.Config{nil, ptr(cloak.TimingConfig(cloak.ModeRAW)), ptr(cloak.TimingConfig(cloak.ModeRAWRAR))} {
		cfg := DefaultConfig()
		cfg.Cloak = cc
		sims = append(sims, NewReplay(prog, is, cfg))
	}
	if _, errs := Walk(sims, 1); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Errorf("a walk of base, RAW and RAW+RAR Sims failed: %v", errs)
	}
}

func ptr[T any](v T) *T { return &v }

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
