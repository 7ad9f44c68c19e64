package experiments

import (
	"testing"

	"rarpred/internal/trace"
)

// TestTimingCheckCleanRun: the replay-vs-live pipeline oracle passes on
// an honest recording and does not perturb the rendered result.
func TestTimingCheckCleanRun(t *testing.T) {
	opt := subset("com", "hyd")
	opt.Size = 14
	plain, err := mustByID(t, "fig10").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Check = true
	checked, err := mustByID(t, "fig10").Run(opt)
	if err != nil {
		t.Fatalf("oracle flagged an honest recording: %v", err)
	}
	if plain.String() != checked.String() {
		t.Errorf("-check perturbed the result:\n--- plain ---\n%s--- checked ---\n%s",
			plain.String(), checked.String())
	}
}

// TestTimingCheckCatchesDivergence: a stored instruction recording that
// passes Validate (tallies intact) but steers one branch the wrong way
// is invisible to the tally check — only the replay-vs-live pipeline
// shadow can see it. The job that loaded it quarantines it.
func TestTimingCheckCatchesDivergence(t *testing.T) {
	opt := subset("com", "m88")
	opt.Size = 16
	opt.Check = true
	tier := poisonIStream(t, opt)
	opt.Store = tier

	res, err := mustByID(t, "fig10").Run(opt)
	assertDivergence(t, "fig10", res, err, opt.Workloads[0])
	assertQuarantined(t, tier, poisonedKey(opt, true))
}

// TestVerdictReachesEveryTimingConsumer: the pipeline oracle's verdict
// on a divergent recording fails every timing experiment that replays
// it — each cell of the suite's timing job, which verifies the
// recording once for all of them, and a standalone run after the suite,
// which obtains and verifies it again — so no consumer times, or shares
// a Result computed from, an unverified recording.
func TestVerdictReachesEveryTimingConsumer(t *testing.T) {
	opt := subset("apl", "li")
	opt.Size = 17
	opt.Check = true
	opt.Parallelism = 2
	opt.Store = poisonIStream(t, opt)

	exps := []Experiment{mustByID(t, "fig10"), mustByID(t, "ablmemspec")}
	delivered := 0
	RunSuite(opt, exps, func(item SuiteItem) bool {
		delivered++
		assertDivergence(t, item.Exp.ID, item.Result, item.Err, opt.Workloads[0])
		return true
	})
	if delivered != len(exps) {
		t.Fatalf("delivered %d experiments, want %d", delivered, len(exps))
	}
	res, err := mustByID(t, "fig9").Run(opt)
	assertDivergence(t, "fig9", res, err, opt.Workloads[0])
}

// poisonIStream returns a store that serves, for opt's first workload,
// an instruction recording that passes Validate but records the 50th
// branch going the wrong way.
func poisonIStream(t *testing.T, opt Options) *fakeTier {
	t.Helper()
	w := opt.Workloads[0]
	prog := w.Assemble(opt.Size)
	correct, err := trace.RecordIStream(prog, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	bad := trace.NewIStream()
	cur := correct.Cursor()
	branches, flipped := 0, false
	for {
		idx, next, ok := cur.NextInst()
		if !ok {
			break
		}
		in := prog.Insts[idx]
		if in.IsBranch() && !flipped {
			if branches++; branches == 50 {
				// Invert the recorded direction of the 50th branch: the
				// replayed predictor trains on (and redirects to) a path
				// the live run never took.
				if next == idx*4+4 {
					next = idx*4 + 8
				} else {
					next = idx*4 + 4
				}
				flipped = true
			}
		}
		bad.AppendInst(idx, next)
		if in.IsMem() {
			addr, value, ok := cur.NextMem()
			if !ok {
				t.Fatal("test setup: recording ran out of memory events")
			}
			bad.AppendMem(addr, value)
		}
	}
	bad.Counts = correct.Counts
	if !flipped {
		t.Fatal("test setup: fewer than 50 branches recorded")
	}
	if bad.Validate() != nil {
		t.Fatal("test setup: bad stream must pass Validate")
	}

	return plantedTier(poisonedKey(opt, true), bad)
}

// TestTimingCorruptRecordingDegrades: a stored instruction recording
// that fails Validate is a miss. The job records the stream again, the
// experiment's result equals a run without a store, and the valid
// recording is saved once.
func TestTimingCorruptRecordingDegrades(t *testing.T) {
	opt := subset("li")
	opt.Size = 10
	plain, err := mustByID(t, "fig10").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	w := opt.Workloads[0]
	bad, err := trace.RecordIStream(w.Assemble(opt.Size), maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	bad.Counts.Insts++ // the profile counts one instruction the stream lacks
	if bad.Validate() == nil {
		t.Fatal("test setup: corrupt recording passes Validate")
	}
	key := trace.Key{Workload: w.Name, Size: opt.Size, MaxInsts: maxInsts, Timing: true}
	tier := plantedTier(key, bad)
	opt.Store = tier

	degraded, err := mustByID(t, "fig10").Run(opt)
	if err != nil {
		t.Fatalf("corrupt stored recording failed the run instead of being re-recorded: %v", err)
	}
	if degraded.String() != plain.String() {
		t.Errorf("degraded run diverges from clean run:\n--- degraded ---\n%s--- plain ---\n%s",
			degraded.String(), plain.String())
	}
	if n := tier.savesOf(key); n != 1 {
		t.Fatalf("saved %d times, want once", n)
	}
	if saved, ok := tier.saved[key].(*trace.IStream); !ok || saved.Validate() != nil {
		t.Errorf("saved %T, want a valid *trace.IStream", tier.saved[key])
	}
}
