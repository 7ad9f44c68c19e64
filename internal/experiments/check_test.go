package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// These tests use workload sizes no other test uses (13, 17, 19, 21,
// 23, 25), so the shared trace cache cannot be pre-populated by another
// test.

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
		Cells: cells(
			func(ctx context.Context, opt Options, w workload.Workload) (int, error) { return 1, nil },
			func(opt Options, ws []workload.Workload, rows []int, fails []*runerr.WorkloadError) (Result, error) {
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
// cache and does not perturb the rendered result.
func TestCheckOracleCleanRun(t *testing.T) {
	opt := subset("com", "hyd")
	opt.Size = 21
	plain, err := runFig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Check = true
	checked, err := runFig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, partial := checked.(*PartialResult); partial {
		t.Fatalf("oracle flagged an honest stream: %s", checked)
	}
	if plain.String() != checked.String() {
		t.Errorf("-check perturbed the result:\n--- plain ---\n%s--- checked ---\n%s",
			plain.String(), checked.String())
	}
}

// TestCheckOracleCatchesDivergence: a cached stream that passes Validate
// (tallies intact) but holds one wrong value is exactly what the
// event-level oracle exists for — the tally check cannot see it.
func TestCheckOracleCatchesDivergence(t *testing.T) {
	opt := subset("com", "m88")
	opt.Size = 23
	opt.MaxInsts = 1_000_000
	opt.Check = true
	poisonStream(t, opt)

	res, err := runFig2(opt)
	assertDivergence(t, "fig2", res, err, opt.Workloads[0])
}

// TestVerdictReachesEveryStreamConsumer: the oracle's verdict on a
// divergent stream fails every experiment that reads it — the suite's
// cells and a standalone run after the suite — not only the first
// consumer to check it.
func TestVerdictReachesEveryStreamConsumer(t *testing.T) {
	opt := subset("com", "m88")
	opt.Size = 25
	opt.MaxInsts = 1_000_000
	opt.Check = true
	opt.Parallelism = 2
	poisonStream(t, opt)

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
	res, err := runFig5(opt)
	assertDivergence(t, "fig5", res, err, opt.Workloads[0])
}

// verdictKey is a cache key no experiment uses, with its verdict
// removed when the test ends.
func verdictKey(t *testing.T) trace.Key {
	key := trace.Key{Workload: "verdict-" + t.Name()}
	t.Cleanup(func() {
		verdicts.Lock()
		delete(verdicts.m, key)
		verdicts.Unlock()
	})
	return key
}

// TestVerdictOneCheckPerRecording: consumers of one recording share one
// check — the ones arriving while it runs wait for it, later ones reuse
// it — so a divergence fails all of them; a recording re-recorded under
// the same key is checked afresh.
func TestVerdictOneCheckPerRecording(t *testing.T) {
	key := verdictKey(t)
	diverged := errors.New("diverges")
	rec := trace.NewStream()
	var checks atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	check := func() (error, error) {
		if checks.Add(1) == 1 {
			close(started)
			<-release
		}
		return diverged, nil
	}

	const consumers = 4
	errs := make([]error, consumers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = verifyOnce(context.Background(), key, rec, check)
	}()
	<-started
	for i := 1; i < consumers; i++ {
		probe := newWaitProbe(context.Background())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = verifyOnce(probe, key, rec, check)
		}(i)
		<-probe.waiting
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, diverged) {
			t.Errorf("consumer %d got %v, want the divergence", i, err)
		}
	}
	if err := verifyOnce(context.Background(), key, rec, check); !errors.Is(err, diverged) {
		t.Errorf("later consumer got %v, want the divergence", err)
	}
	if n := checks.Load(); n != 1 {
		t.Errorf("one recording was checked %d times, want once", n)
	}

	rerecorded := trace.NewStream()
	if err := verifyOnce(context.Background(), key, rerecorded, func() (error, error) {
		checks.Add(1)
		return nil, nil
	}); err != nil {
		t.Errorf("re-recorded stream got %v, want a fresh verdict", err)
	}
	if n := checks.Load(); n != 2 {
		t.Errorf("re-recorded stream was not checked afresh (%d checks)", n)
	}
}

// TestVerdictUndecidedCheckRetries: a check that cannot decide — its
// live re-record fails or is canceled, or it panics — reports to its
// own consumer only and leaves no verdict; the consumers waiting on it
// check again (once, under their own contexts) and get the real verdict.
func TestVerdictUndecidedCheckRetries(t *testing.T) {
	canceled := fmt.Errorf("check: live re-record for oracle failed: %w", context.Canceled)
	for _, tc := range []struct {
		name  string
		check func() (error, error)
		want  func(err error, panicked any) bool
	}{
		{
			name:  "canceled",
			check: func() (error, error) { return nil, canceled },
			want:  func(err error, _ any) bool { return errors.Is(err, context.Canceled) },
		},
		{
			name:  "panic",
			check: func() (error, error) { panic("shadow exploded") },
			want:  func(_ error, panicked any) bool { return panicked == "shadow exploded" },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := verdictKey(t)
			rec := trace.NewStream()
			var (
				wg         sync.WaitGroup
				firstErr   error
				firstPanic any
				rechecks   atomic.Int32
				waiterErrs [3]error
			)
			started, release := make(chan struct{}), make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { firstPanic = recover() }()
				firstErr = verifyOnce(context.Background(), key, rec, func() (error, error) {
					close(started)
					<-release
					return tc.check()
				})
			}()
			<-started
			for i := range waiterErrs {
				probe := newWaitProbe(context.Background())
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					waiterErrs[i] = verifyOnce(probe, key, rec, func() (error, error) {
						rechecks.Add(1)
						return nil, nil
					})
				}(i)
				<-probe.waiting
			}
			close(release)
			wg.Wait()

			if !tc.want(firstErr, firstPanic) {
				t.Errorf("first consumer got err %v, panic %v; want its own undecided check", firstErr, firstPanic)
			}
			for i, err := range waiterErrs {
				if err != nil {
					t.Errorf("waiter %d inherited %v, want the re-check's verdict", i, err)
				}
			}
			if n := rechecks.Load(); n != 1 {
				t.Errorf("waiters re-checked %d times, want once", n)
			}
		})
	}
}

// poisonStream caches, for opt's first workload, a memory stream that
// passes Validate (tallies intact) but holds one wrong value, and drops
// it when the test ends.
func poisonStream(t *testing.T, opt Options) {
	t.Helper()
	w := opt.Workloads[0]
	correct, err := trace.RecordStreamBaselineContext(context.Background(), w.Assemble(opt.Size), opt.MaxInsts)
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

	key := trace.Key{Workload: w.Name, Size: opt.Size, MaxInsts: opt.MaxInsts}
	if _, err := TraceCache().Get(key, func() (*trace.Stream, error) { return bad, nil }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { TraceCache().Drop(key) })
}

// assertDivergence reports unless exp's outcome is a partial result in
// which exactly the poisoned workload w failed the -check oracle. It
// only uses t.Errorf, so suite delivery callbacks may call it.
func assertDivergence(t *testing.T, exp string, res Result, err error, w workload.Workload) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: divergence aborted the run instead of failing the workload: %v", exp, err)
		return
	}
	p, ok := res.(*PartialResult)
	if !ok {
		t.Errorf("%s: poisoned recording produced a clean result: %s", exp, res)
		return
	}
	if len(p.Fails) != 1 || p.Fails[0].Workload != w.Name {
		t.Errorf("%s: failures = %v, want exactly the poisoned workload", exp, p.Fails)
		return
	}
	if msg := p.Fails[0].Error(); !strings.Contains(msg, "diverges") {
		t.Errorf("%s: failure does not describe the divergence: %s", exp, msg)
	}
}
