package pipeline

import (
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/workload"
)

// TestSuiteInvariants sweeps every workload at a small size and checks
// the timing model's global invariants under the base configuration.
func TestSuiteInvariants(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Abbrev, func(t *testing.T) {
			t.Parallel()
			res, err := RunProgram(w.Assemble(3), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles == 0 || res.Insts == 0 {
				t.Fatal("empty run")
			}
			// Width bound: commit cannot exceed 8 per cycle.
			if res.Cycles < res.Insts/8 {
				t.Errorf("cycles %d below width bound (%d insts)", res.Cycles, res.Insts)
			}
			// Sanity ceiling: nothing in the model can stall a committed
			// instruction for thousands of cycles on these workloads.
			if res.Cycles > res.Insts*50 {
				t.Errorf("CPI %0.f implausible", float64(res.Cycles)/float64(res.Insts))
			}
			if res.TimedInsts != res.Insts {
				t.Errorf("TimedInsts %d != Insts %d without sampling",
					res.TimedInsts, res.Insts)
			}
			if res.EstimatedCycles() != res.Cycles {
				t.Error("EstimatedCycles deviates without sampling")
			}
			if res.BranchAcc < 0.4 || res.BranchAcc > 1 {
				t.Errorf("branch accuracy %.2f", res.BranchAcc)
			}
		})
	}
}

// TestSuiteWidthMonotonic: a narrower machine is never faster, across
// the whole suite.
func TestSuiteWidthMonotonic(t *testing.T) {
	for _, ab := range []string{"go", "com", "tom", "fp*"} {
		w, _ := workload.ByAbbrev(ab)
		prog := w.Assemble(3)
		wide, err := RunProgram(prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Width = 4
		narrow, err := RunProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if narrow.Cycles < wide.Cycles {
			t.Errorf("%s: 4-wide (%d) faster than 8-wide (%d)", ab, narrow.Cycles, wide.Cycles)
		}
	}
}

// TestSuiteCloakingNeverCatastrophic: with adaptive confidence and
// selective recovery, the mechanism must never slow a program down by
// more than a trivial margin — the paper's "these improvements come at
// virtually no cost".
func TestSuiteCloakingNeverCatastrophic(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Abbrev, func(t *testing.T) {
			t.Parallel()
			base, err := RunProgram(w.Assemble(3), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cc := cloak.TimingConfig(cloak.ModeRAWRAR)
			cfg.Cloak = &cc
			cfg.Bypassing = true
			cloaked, err := RunProgram(w.Assemble(3), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Allow 1% slack for second-order redirect interactions.
			if cloaked.Cycles > base.Cycles+base.Cycles/100 {
				t.Errorf("cloaking slowed %s: %d vs %d cycles",
					w.Name, cloaked.Cycles, base.Cycles)
			}
		})
	}
}

// TestSuiteArchitecturalStateUnaffected: the timing simulator commits the
// same instruction count regardless of configuration (oracle-functional
// design: timing never changes architecture).
func TestSuiteArchitecturalStateUnaffected(t *testing.T) {
	w, _ := workload.ByAbbrev("li")
	configs := []Config{DefaultConfig()}
	c2 := DefaultConfig()
	c2.MemSpec = NoSpec
	configs = append(configs, c2)
	c3 := DefaultConfig()
	cc := cloak.TimingConfig(cloak.ModeRAWRAR)
	c3.Cloak = &cc
	c3.Recovery = Squash
	configs = append(configs, c3)
	c4 := DefaultConfig()
	c4.SampleRatio = 2
	c4.ObservationSize = 5_000
	configs = append(configs, c4)

	var insts []uint64
	for _, cfg := range configs {
		res, err := RunProgram(w.Assemble(3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, res.Insts)
	}
	for i := 1; i < len(insts); i++ {
		if insts[i] != insts[0] {
			t.Errorf("config %d committed %d insts, config 0 committed %d",
				i, insts[i], insts[0])
		}
	}
}
