package experiments

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// Resilience tests fail workloads through the production seams (a
// fake Options.Store, Options.Context) and assert the failure rule: a
// failed cell fails its experiment, attributed and typed, and never
// the process.

func name(t *testing.T, abbrev string) string {
	t.Helper()
	w, ok := workload.ByAbbrev(abbrev)
	if !ok {
		t.Fatalf("unknown workload %s", abbrev)
	}
	return w.Name
}

// panicTier is a store whose Load panics on the named workloads'
// recordings and misses on every other.
func panicTier(workloads ...string) *fakeTier {
	return &fakeTier{load: func(k trace.Key) (trace.Cached, error) {
		if slices.Contains(workloads, k.Workload) {
			panic("load exploded on " + k.Workload)
		}
		return nil, nil
	}}
}

// cellErrors returns the failed cells' errors an experiment's error
// joins, in suite order.
func cellErrors(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return nil
}

// TestPanicIsolatedIntoPartialResult: a panic in one workload's job is
// isolated into the typed failure of the experiments that job serves,
// and the rest of the suite is still delivered. The store's Load panics
// on gcc's memory recording alone: fig2 fails with ErrWorkloadPanic on
// gcc's cell only, with no goroutine stack on its error's first line,
// and fig10, whose timing jobs read instruction recordings, is
// delivered equal to a run without a store.
func TestPanicIsolatedIntoPartialResult(t *testing.T) {
	opt := subset("gcc", "tom", "com")
	opt.Size = 5
	gcc := name(t, "gcc")
	clean, err := mustByID(t, "fig10").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Store = &fakeTier{load: func(k trace.Key) (trace.Cached, error) {
		if k.Workload == gcc && !k.Timing {
			panic("load exploded on " + k.Workload)
		}
		return nil, nil
	}}

	items := suiteRows(opt, []Experiment{mustByID(t, "fig2"), mustByID(t, "fig10")})
	fig2 := items["fig2"]
	if fig2.Err == nil || fig2.Result != nil {
		t.Fatalf("fig2 = %v, %v; want an error and no result", fig2.Result, fig2.Err)
	}
	if !errors.Is(fig2.Err, runerr.ErrWorkloadPanic) {
		t.Errorf("fig2 err = %v, want ErrWorkloadPanic", fig2.Err)
	}
	if cells := cellErrors(fig2.Err); len(cells) != 1 || !strings.HasPrefix(cells[0].Error(), "fig2/"+gcc+": ") {
		t.Errorf("fig2 err = %v, want gcc's failure alone", fig2.Err)
	}
	if first, _, _ := strings.Cut(fig2.Err.Error(), "\n"); strings.Contains(first, "goroutine ") {
		t.Errorf("the error's first line holds the panic stack: %q", first)
	}
	for wi, cell := range fig2.Cells {
		if cell.Failed != (wi == 0) {
			t.Errorf("fig2 cell %+v, want failed on %s alone", cell, gcc)
		}
	}

	fig10 := items["fig10"]
	if fig10.Err != nil {
		t.Fatalf("fig10 failed with fig2's panic: %v", fig10.Err)
	}
	if got := fig10.Result.String(); got != clean.String() {
		t.Errorf("fig10 beside the panic differs from a run without a store:\n--- got ---\n%s--- want ---\n%s", got, clean)
	}
}

// TestRegistryStampsExperimentID: a workload whose job panics fails its
// experiment, not the process. fig2's error wraps ErrWorkloadPanic and
// reads "fig2/<workload>: ...", and its first line holds no goroutine
// stack.
func TestRegistryStampsExperimentID(t *testing.T) {
	opt := subset("gcc", "tom", "com")
	opt.Size = 5
	gcc := name(t, "gcc")
	opt.Store = panicTier(gcc)

	res, err := mustByID(t, "fig2").Run(opt)
	if err == nil || res != nil {
		t.Fatalf("fig2 = %v, %v; want an error and no result", res, err)
	}
	if !errors.Is(err, runerr.ErrWorkloadPanic) {
		t.Errorf("err = %v, want ErrWorkloadPanic", err)
	}
	var we *runerr.WorkloadError
	if !errors.As(err, &we) || we.Experiment != "fig2" || we.Workload != gcc {
		t.Errorf("err = %v, want a failure stamped fig2/%s", err, gcc)
	}
	first, _, _ := strings.Cut(err.Error(), "\n")
	if !strings.HasPrefix(first, "fig2/"+gcc+": ") {
		t.Errorf("error reads %q, want it attributed to fig2/%s", first, gcc)
	}
	if strings.Contains(first, "goroutine ") {
		t.Errorf("the error's first line holds the panic stack: %q", first)
	}
	if n := len(cellErrors(err)); n != 1 {
		t.Errorf("%d failed cells, want gcc's alone: %v", n, err)
	}
}

// TestStalledWorkloadHitsDeadline: a workload stalled past the run
// deadline (Options.Context, which -timeout sets) ends the run with the
// typed ErrDeadline hard error. The stall is a store whose Load blocks
// until the run context ends; it then unblocks and leaves no goroutine
// behind.
func TestStalledWorkloadHitsDeadline(t *testing.T) {
	before := runtime.NumGoroutine()

	opt := subset("go", "tom")
	opt.Size = 3
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	opt.Context = ctx
	stalled := name(t, "go")
	opt.Store = &fakeTier{load: func(k trace.Key) (trace.Cached, error) {
		if k.Workload == stalled {
			<-ctx.Done()
		}
		return nil, nil
	}}

	res, err := mustByID(t, "table51").Run(opt)
	if err == nil {
		t.Fatalf("stalled run returned a result: %v", res)
	}
	if !errors.Is(err, runerr.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadline wrapping context.DeadlineExceeded", err)
	}

	// The stalled goroutine must have unblocked on the deadline; allow
	// the runtime a moment to retire it.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestCorruptStreamDegradesToLiveRecord: a stored memory recording
// that fails Validate is a miss for the whole fused pass that reads it.
// hyd's job, shared by fig2, fig5 and table51, records the stream again;
// every experiment equals its run without a store, and the recording
// is asked for once and saved once, valid.
func TestCorruptStreamDegradesToLiveRecord(t *testing.T) {
	opt := subset("hyd", "com")
	opt.Size = 7
	exps := []Experiment{mustByID(t, "fig2"), mustByID(t, "fig5"), mustByID(t, "table51")}
	clean := map[string]string{}
	for _, e := range exps {
		res, err := e.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		clean[e.ID] = res.String()
	}
	w := opt.Workloads[0]
	bad, err := trace.RecordStream(w.Assemble(opt.Size), maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	bad.Counts.Loads++ // the profile counts one load the events lack
	if bad.Validate() == nil {
		t.Fatal("test setup: corrupt recording passes Validate")
	}
	key := trace.Key{Workload: w.Name, Size: opt.Size, MaxInsts: maxInsts}
	tier := plantedTier(key, bad)
	opt.Store = tier

	for id, item := range suiteRows(opt, exps) {
		if item.Err != nil {
			t.Errorf("%s: corrupt stored recording failed the run instead of being re-recorded: %v", id, item.Err)
			continue
		}
		if got := item.Result.String(); got != clean[id] {
			t.Errorf("%s: degraded run diverges from clean run:\n--- degraded ---\n%s--- clean ---\n%s", id, got, clean[id])
		}
	}
	if loads, saves := tier.loadsOf(key), tier.savesOf(key); loads != 1 || saves != 1 {
		t.Errorf("%d loads and %d saves of %s's recording, want one of each", loads, saves, w.Name)
	}
	if saved, ok := tier.saved[key].(*trace.Stream); !ok || saved.Validate() != nil {
		t.Errorf("saved %T, want a valid *trace.Stream", tier.saved[key])
	}
}

// TestRunContextCancelAborts: the run-level context ending is a hard
// abort (typed ErrCanceled): the caller is going away, so no report is
// rendered.
func TestRunContextCancelAborts(t *testing.T) {
	opt := subset("go", "gcc")
	opt.Size = 6
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt.Context = ctx

	res, err := mustByID(t, "fig2").Run(opt)
	if err == nil {
		t.Fatalf("canceled run returned a result: %v", res)
	}
	if !errors.Is(err, runerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestEveryWorkloadFailingIsAnError: the experiment's error joins every
// failed cell, each attributed to its workload, in suite order.
func TestEveryWorkloadFailingIsAnError(t *testing.T) {
	opt := subset("li", "m88")
	opt.Size = 9
	opt.Store = panicTier(name(t, "li"), name(t, "m88"))

	_, err := mustByID(t, "table51").Run(opt)
	if err == nil {
		t.Fatal("all-failed suite returned a result")
	}
	if !errors.Is(err, runerr.ErrWorkloadPanic) {
		t.Errorf("err = %v, want joined ErrWorkloadPanic failures", err)
	}
	cells := cellErrors(err)
	if len(cells) != 2 {
		t.Fatalf("err joins %d failures, want both workloads': %v", len(cells), err)
	}
	for i, ab := range []string{"li", "m88"} {
		if want := "table51/" + name(t, ab) + ": "; !strings.HasPrefix(cells[i].Error(), want) {
			t.Errorf("failure %d reads %q, want it to start %q", i, cells[i], want)
		}
	}
}
