package experiments

import (
	"context"
	"testing"

	"rarpred/internal/faultsim"
	"rarpred/internal/trace"
)

// These tests use timing sizes no other test uses (8, 10, 14, 16, 17),
// so the shared trace cache cannot be pre-populated by another test.

// TestTimingLiveMatchesReplay: Options.Live forces every configuration
// onto a private live interpreter; the rendered result must be
// identical to the shared-recording replay path. This is the
// experiment-level twin of pipeline's TestReplayMatchesLive.
func TestTimingLiveMatchesReplay(t *testing.T) {
	opt := subset("go", "tom")
	opt.Size = 8
	replayed, err := mustByID(t, "fig9").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Live = true
	live, err := mustByID(t, "fig9").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if live.String() != replayed.String() {
		t.Errorf("Live diverges from replay:\n--- replay ---\n%s--- live ---\n%s",
			replayed.String(), live.String())
	}
}

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
		t.Fatal(err)
	}
	if _, partial := checked.(*PartialResult); partial {
		t.Fatalf("oracle flagged an honest recording: %s", checked)
	}
	if plain.String() != checked.String() {
		t.Errorf("-check perturbed the result:\n--- plain ---\n%s--- checked ---\n%s",
			plain.String(), checked.String())
	}
}

// TestTimingCheckCatchesDivergence: a cached instruction recording that
// passes Validate (tallies intact) but steers one branch the wrong way
// is invisible to the tally check — only the replay-vs-live pipeline
// shadow can see it.
func TestTimingCheckCatchesDivergence(t *testing.T) {
	opt := subset("com", "m88")
	opt.Size = 16
	opt.Check = true
	poisonIStream(t, opt)

	res, err := mustByID(t, "fig10").Run(opt)
	assertDivergence(t, "fig10", res, err, opt.Workloads[0])
}

// TestVerdictReachesEveryTimingConsumer: the pipeline oracle's verdict
// on a divergent recording fails every timing experiment that replays
// it — the suite's cells and a standalone run after the suite — so no
// consumer times, or shares a Result computed from, an unverified
// recording.
func TestVerdictReachesEveryTimingConsumer(t *testing.T) {
	opt := subset("apl", "li")
	opt.Size = 17
	opt.Check = true
	opt.Parallelism = 2
	poisonIStream(t, opt)

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

// poisonIStream caches, for opt's first workload, an instruction
// recording that passes Validate but records the 50th branch going the
// wrong way, and drops it when the test ends.
func poisonIStream(t *testing.T, opt Options) {
	t.Helper()
	w := opt.Workloads[0]
	prog := w.Program(opt.Size)
	correct, err := trace.RecordIStreamBaselineContext(context.Background(), w.Assemble(opt.Size), opt.maxInsts())
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

	key := trace.Key{Workload: w.Name, Size: opt.Size, MaxInsts: opt.maxInsts(), Timing: true}
	if _, err := TraceCache().GetIStreamContext(context.Background(), key,
		func() (*trace.IStream, error) { return bad, nil }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { TraceCache().Drop(key) })
}

// TestTimingCorruptRecordingDegrades: an injected recording corruption
// fails Validate, the poisoned cache entry is dropped, and the baseline
// interpreter re-records — the experiment still delivers a result
// identical to an unfaulted run.
func TestTimingCorruptRecordingDegrades(t *testing.T) {
	defer faultsim.Reset()
	opt := subset("li")
	opt.Size = 10
	faultsim.Inject(opt.Workloads[0].Name, faultsim.Fault{Kind: faultsim.Corrupt, Times: 1})
	degraded, err := mustByID(t, "fig10").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, partial := degraded.(*PartialResult); partial {
		t.Fatalf("corrupt recording failed the workload instead of degrading: %s", degraded)
	}
	faultsim.Reset()
	plain, err := mustByID(t, "fig10").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.String() != plain.String() {
		t.Errorf("degraded run diverges from clean run:\n--- degraded ---\n%s--- plain ---\n%s",
			degraded.String(), plain.String())
	}
}
