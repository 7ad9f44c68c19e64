package pipeline

import (
	"testing"

	"rarpred/internal/check"
	"rarpred/internal/cloak"
	"rarpred/internal/workload"
)

// armSelfCheck arms the pipeline's and the cloaking structures'
// package gates until t and its subtests end. It disarms them in
// t.Cleanup, which, unlike a deferred call, waits for parallel
// subtests.
func armSelfCheck(t *testing.T) {
	SetSelfCheck(true)
	cloak.SetSelfCheck(true)
	t.Cleanup(func() {
		SetSelfCheck(false)
		cloak.SetSelfCheck(false)
	})
}

// TestSelfCheckCleanRun runs the suite with the invariant sweeps armed,
// base and cloaked. Regression for the setDest verify clamp: before the
// fix, any ALU or jump result whose sources verify early recorded
// verify < ready, and the first sweep tripped "pipeline.regs".
func TestSelfCheckCleanRun(t *testing.T) {
	armSelfCheck(t)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Abbrev, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			v := check.Catch(func() {
				if _, err := RunProgram(w.Assemble(3), cfg); err != nil {
					t.Fatal(err)
				}
			})
			if v != nil {
				t.Fatalf("base config: %v", v)
			}

			cc := cloak.TimingConfig(cloak.ModeRAWRAR)
			cfg.Cloak = &cc
			v = check.Catch(func() {
				if _, err := RunProgram(w.Assemble(3), cfg); err != nil {
					t.Fatal(err)
				}
			})
			if v != nil {
				t.Fatalf("cloaked config: %v", v)
			}
		})
	}
}

// TestSelfCheckDoesNotPerturbTiming: the sweep only reads state, so a
// checked run must produce the identical Result.
func TestSelfCheckDoesNotPerturbTiming(t *testing.T) {
	w, _ := workload.ByAbbrev("go")
	prog := w.Assemble(3)

	run := func() Result {
		cfg := DefaultConfig()
		cc := cloak.TimingConfig(cloak.ModeRAWRAR)
		cfg.Cloak = &cc
		res, err := RunProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()
	armSelfCheck(t)
	if checked := run(); plain != checked {
		t.Fatalf("self-check perturbed the run:\nplain   %+v\nchecked %+v", plain, checked)
	}
}

// TestSweepCatchesCorruption plants each class of broken state directly
// and verifies the sweep attributes it to the right site.
func TestSweepCatchesCorruption(t *testing.T) {
	w, _ := workload.ByAbbrev("go")
	armSelfCheck(t)
	newSim := func() *Sim { return New(w.Assemble(3), DefaultConfig()) }

	s := newSim()
	s.regs[3] = regState{ready: 10, verify: 5}
	if v := check.Catch(s.checkInvariants); v == nil || v.Site != "pipeline.regs" {
		t.Fatalf("verify<ready not caught: %v", v)
	}

	s = newSim()
	s.commitRing[7] = s.lastCommit + 100
	if v := check.Catch(s.checkInvariants); v == nil || v.Site != "pipeline.window" {
		t.Fatalf("commit-ring overrun not caught: %v", v)
	}

	s = newSim()
	s.stores = append(s.stores, storeRec{pc: 4, addrReady: 9, dataReady: 3, seq: 0})
	s.seq = 1
	if v := check.Catch(s.checkInvariants); v == nil || v.Site != "pipeline.lsq" {
		t.Fatalf("data-before-address store not caught: %v", v)
	}

	s = newSim()
	s.stores = append(s.stores, storeRec{pc: 4, addrReady: 3, dataReady: 9, seq: 5})
	s.seq = 5 // record claims a producer that has not been processed
	if v := check.Catch(s.checkInvariants); v == nil || v.Site != "pipeline.lsq" {
		t.Fatalf("future store sequence not caught: %v", v)
	}

	// The machine sweeps its own store-address filter.
	m := newMachine(DefaultConfig(), true)
	m.recordStore(0x100)
	if v := check.Catch(m.checkStoreFilter); v != nil {
		t.Fatalf("in-sync store filter flagged: %v", v)
	}
	m.tags[tagIdx(0x100)] = 0
	if v := check.Catch(m.checkStoreFilter); v == nil || v.Site != "pipeline.lsq" {
		t.Fatalf("store filter out of sync with the ring not caught: %v", v)
	}
}

// TestSRTSweepCatchesFutureOwner covers the cloak-side SRT sweep the
// pipeline invokes: a live entry owned by a not-yet-processed producer.
func TestSRTSweepCatchesFutureOwner(t *testing.T) {
	srt := cloak.NewSRT(0, 0)
	srt.Install(7, 42, 10)
	if v := check.Catch(func() { srt.CheckInvariants(11) }); v != nil {
		t.Fatalf("past owner flagged: %v", v)
	}
	if v := check.Catch(func() { srt.CheckInvariants(10) }); v == nil || v.Site != "srt.owner" {
		t.Fatalf("future owner not caught: %v", v)
	}
	srt.Release(7, 10)
	if v := check.Catch(func() { srt.CheckInvariants(5) }); v != nil {
		t.Fatalf("dead entry flagged: %v", v)
	}
}

// TestSetSelfCheckGatesConstruction: the package-wide gate arms sims
// built after the call, without touching Config.
func TestSetSelfCheckGatesConstruction(t *testing.T) {
	w, _ := workload.ByAbbrev("go")
	SetSelfCheck(true)
	defer SetSelfCheck(false)
	s := New(w.Assemble(3), DefaultConfig())
	if !s.sc {
		t.Fatal("SetSelfCheck(true) did not arm a new Sim")
	}
	SetSelfCheck(false)
	if s = New(w.Assemble(3), DefaultConfig()); s.sc {
		t.Fatal("gate off but Sim armed")
	}
}
