package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

func mustByID(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	return e
}

// TestSuiteCancelAndStop: a dead run context delivers every experiment
// as not run, and a deliver=false stop delivers nothing after the
// result that stopped it.
func TestSuiteCancelAndStop(t *testing.T) {
	opt := subset("go", "tom")
	opt.Size = 17
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt.Context = ctx
	RunSuite(opt, []Experiment{mustByID(t, "table51"), mustByID(t, "fig2")},
		func(item SuiteItem) bool {
			if !item.NotRun {
				t.Errorf("%s ran under a dead context", item.Exp.ID)
			}
			return true
		})

	opt = subset("go", "tom")
	opt.Size = 19
	delivered := 0
	RunSuite(opt, []Experiment{mustByID(t, "table51"), mustByID(t, "fig2")},
		func(SuiteItem) bool { delivered++; return false }) // stop after the first result
	if delivered != 1 {
		t.Fatalf("stopped suite delivered %d items, want 1", delivered)
	}
}

// TestAssemblePanicIsolated: a panicking Assemble fails its experiment
// (typed, stamped), not the pool worker — later experiments still
// deliver.
func TestAssemblePanicIsolated(t *testing.T) {
	opt := subset("go", "tom")
	opt.Size = 13 // no oracle, no faults
	bomb := Experiment{
		ID:    "bomb",
		Title: "assembler that panics",
		Cells: tracedCells(
			func(p *pass) func() int { return func() int { return 1 } },
			func(ws []workload.Workload, rows []int) Result {
				panic("assembler exploded")
			},
		),
	}
	var got []SuiteItem
	RunSuite(opt, []Experiment{bomb, mustByID(t, "fig2")}, func(item SuiteItem) bool {
		got = append(got, item)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("delivered %d items, want 2", len(got))
	}
	if err := got[0].Err; err == nil || !errors.Is(err, runerr.ErrWorkloadPanic) ||
		!strings.Contains(err.Error(), "bomb") {
		t.Errorf("bomb error = %v, want stamped ErrWorkloadPanic", err)
	}
	if got[1].Err != nil {
		t.Errorf("experiment after the bomb failed: %v", got[1].Err)
	}
}

// TestCheckOracleCleanRun: the replay-vs-live oracle passes on an honest
// recording and does not perturb the rendered result.
func TestCheckOracleCleanRun(t *testing.T) {
	opt := subset("com", "hyd")
	opt.Size = 21
	plain, err := mustByID(t, "fig2").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Check = true
	checked, err := mustByID(t, "fig2").Run(opt)
	if err != nil {
		t.Fatalf("oracle flagged an honest stream: %v", err)
	}
	if plain.String() != checked.String() {
		t.Errorf("-check perturbed the result:\n--- plain ---\n%s--- checked ---\n%s",
			plain.String(), checked.String())
	}
}

// TestCheckOracleCatchesDivergence: a stored stream that passes Validate
// (tallies intact) but holds one wrong value is exactly what the
// event-level oracle exists for — the tally check cannot see it. The
// job that loaded it quarantines it, so no later run is served it.
func TestCheckOracleCatchesDivergence(t *testing.T) {
	opt := subset("com", "m88")
	opt.Size = 23
	opt.Check = true
	tier := poisonStream(t, opt)
	opt.Store = tier

	res, err := mustByID(t, "fig2").Run(opt)
	assertDivergence(t, "fig2", res, err, opt.Workloads[0])
	assertQuarantined(t, tier, poisonedKey(opt, false))
}

// TestVerdictReachesEveryStreamConsumer: the oracle's verdict on a
// divergent stream fails every experiment that reads it — each cell of
// the suite's pass, which verifies the stream once for all of them, and
// a standalone run after the suite, which obtains and verifies the
// stream again.
func TestVerdictReachesEveryStreamConsumer(t *testing.T) {
	opt := subset("com", "m88")
	opt.Size = 25
	opt.Check = true
	opt.Parallelism = 2
	opt.Store = poisonStream(t, opt)

	exps := []Experiment{mustByID(t, "fig2"), mustByID(t, "table51")}
	delivered := 0
	RunSuite(opt, exps, func(item SuiteItem) bool {
		delivered++
		assertDivergence(t, item.Exp.ID, item.Result, item.Err, opt.Workloads[0])
		return true
	})
	if delivered != len(exps) {
		t.Fatalf("delivered %d experiments, want %d", delivered, len(exps))
	}
	res, err := mustByID(t, "fig5").Run(opt)
	assertDivergence(t, "fig5", res, err, opt.Workloads[0])
}

// poisonStream returns a store that serves, for opt's first workload,
// a memory stream that passes Validate (tallies intact) but holds one
// wrong value.
func poisonStream(t *testing.T, opt Options) *fakeTier {
	t.Helper()
	w := opt.Workloads[0]
	correct, err := trace.RecordStreamBaselineContext(context.Background(), w.Assemble(opt.Size), maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	bad := trace.NewStream()
	i := 0
	flip := func(kind trace.Kind) func(pc, addr, value uint32) {
		return func(pc, addr, value uint32) {
			if i == 7 {
				value ^= 1
			}
			bad.Append(kind, pc, addr, value)
			i++
		}
	}
	correct.Replay(trace.SinkFuncs{OnLoad: flip(trace.KindLoad), OnStore: flip(trace.KindStore)})
	bad.Counts = correct.Counts
	if bad.Validate() != nil || trace.DiffStreams(bad, correct) == nil {
		t.Fatal("test setup: bad stream must pass Validate yet differ")
	}

	return plantedTier(poisonedKey(opt, false), bad)
}

// poisonedKey is the key of the recording poisonStream (timing false)
// or poisonIStream (timing true) poisons: opt's first workload's.
func poisonedKey(opt Options, timing bool) trace.Key {
	return trace.Key{Workload: opt.Workloads[0].Name, Size: opt.Size, MaxInsts: maxInsts, Timing: timing}
}

// assertQuarantined reports unless key, and only key, was quarantined
// in tier, once.
func assertQuarantined(t *testing.T, tier *fakeTier, key trace.Key) {
	t.Helper()
	if n := tier.quarantinesOf(key); n != 1 || len(tier.quarantines) != 1 {
		t.Errorf("quarantined %v, want %+v once", tier.quarantines, key)
	}
}

// assertDivergence reports unless exp failed, and its one failed cell
// is the poisoned workload w's, failed by the -check oracle. It only
// uses t.Errorf, so suite delivery callbacks may call it.
func assertDivergence(t *testing.T, exp string, res Result, err error, w workload.Workload) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: poisoned recording produced a clean result: %s", exp, res)
		return
	}
	cells := cellErrors(err)
	if len(cells) != 1 || !strings.HasPrefix(cells[0].Error(), exp+"/"+w.Name+": ") {
		t.Errorf("%s: err = %v, want exactly the poisoned workload's failure", exp, err)
		return
	}
	if msg := cells[0].Error(); !strings.Contains(msg, "diverges") {
		t.Errorf("%s: failure does not describe the divergence: %s", exp, msg)
	}
}
