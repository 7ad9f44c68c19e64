package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"rarpred/internal/faultsim"
	"rarpred/internal/runerr"
	"rarpred/internal/workload"
)

// Resilience tests inject faults through internal/faultsim and assert
// the harness degrades instead of dying.

func name(t *testing.T, abbrev string) string {
	t.Helper()
	w, ok := workload.ByAbbrev(abbrev)
	if !ok {
		t.Fatalf("unknown workload %s", abbrev)
	}
	return w.Name
}

// TestPanicIsolatedIntoPartialResult: a workload whose interpreter
// panics yields a typed per-workload failure while the other workloads'
// rows complete — the experiment returns an annotated partial result,
// not an error and not a crash.
func TestPanicIsolatedIntoPartialResult(t *testing.T) {
	defer faultsim.Reset()
	opt := subset("gcc", "tom", "com")
	opt.Size = 5
	faultsim.Inject(name(t, "gcc"), faultsim.Fault{Kind: faultsim.Panic})

	res, err := mustByID(t, "fig2").Run(opt)
	if err != nil {
		t.Fatalf("experiment aborted instead of isolating the panic: %v", err)
	}
	p, ok := res.(*PartialResult)
	if !ok {
		t.Fatalf("result is %T, want *PartialResult", res)
	}
	if len(p.Fails) != 1 {
		t.Fatalf("failures = %v, want exactly one", p.Fails)
	}
	f := p.Fails[0]
	if !errors.Is(f, runerr.ErrWorkloadPanic) {
		t.Errorf("failure %v is not ErrWorkloadPanic", f)
	}
	if f.Workload != name(t, "gcc") {
		t.Errorf("failure names %q, want the faulted workload", f.Workload)
	}
	inner := p.Result.(*Fig2Result)
	if len(inner.Rows) != 2 {
		t.Fatalf("%d surviving rows, want 2", len(inner.Rows))
	}
	for _, row := range inner.Rows {
		if row.Workload.Abbrev == "gcc" {
			t.Error("faulted workload produced a row")
		}
	}
	out := p.String()
	if !strings.Contains(out, "partial result") || !strings.Contains(out, name(t, "gcc")) {
		t.Errorf("rendering lacks the failure annotation:\n%s", out)
	}
	if strings.Contains(out, "goroutine ") {
		t.Error("rendering leaks the panic stack into the report")
	}
}

// TestRegistryStampsExperimentID: failures surfacing through the
// registry carry the experiment id, completing the error taxonomy.
func TestRegistryStampsExperimentID(t *testing.T) {
	defer faultsim.Reset()
	opt := subset("go", "vor")
	opt.Size = 5
	faultsim.Inject(name(t, "vor"), faultsim.Fault{Kind: faultsim.Panic})

	e, _ := ByID("fig5")
	res, err := e.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	p := res.(*PartialResult)
	if got := p.Failures()[0].Experiment; got != "fig5" {
		t.Errorf("failure stamped %q, want fig5", got)
	}
	if !strings.Contains(p.Failures()[0].Error(), "fig5/") {
		t.Errorf("rendered error lacks experiment id: %v", p.Failures()[0])
	}
}

// TestStalledWorkloadHitsDeadline: a workload stalled past the run
// deadline (Options.Context, which -timeout sets) ends the run with the
// typed ErrDeadline hard error, and the stalled recording unblocks and
// leaves no goroutine behind.
func TestStalledWorkloadHitsDeadline(t *testing.T) {
	defer faultsim.Reset()
	before := runtime.NumGoroutine()

	opt := subset("go", "tom")
	opt.Size = 3
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	opt.Context = ctx
	faultsim.Inject(name(t, "go"), faultsim.Fault{Kind: faultsim.Stall})

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

// TestCorruptStreamDegradesToLiveRecord: a corrupt recording is
// transparently re-recorded live — the experiment completes with no
// failure annotations and output identical to an unfaulted run.
func TestCorruptStreamDegradesToLiveRecord(t *testing.T) {
	defer faultsim.Reset()
	opt := subset("hyd", "com")
	opt.Size = 7
	faultsim.Inject(name(t, "hyd"), faultsim.Fault{Kind: faultsim.Corrupt, Times: 1})

	res, err := mustByID(t, "fig2").Run(opt)
	if err != nil {
		t.Fatalf("degradation failed: %v", err)
	}
	if _, ok := res.(*PartialResult); ok {
		t.Fatalf("corruption leaked into the result: %s", res)
	}

	faultsim.Reset()
	clean, err := mustByID(t, "fig2").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != clean.String() {
		t.Errorf("degraded output diverges from clean run:\n--- degraded ---\n%s--- clean ---\n%s",
			res.String(), clean.String())
	}
}

// TestRunContextCancelAborts: the run-level context ending is a hard
// abort (typed ErrCanceled), not a partial result — the caller is going
// away, so no report is rendered.
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

// TestEveryWorkloadFailingIsAnError: with no survivors there is nothing
// to render, so the experiment returns the joined typed failures.
func TestEveryWorkloadFailingIsAnError(t *testing.T) {
	defer faultsim.Reset()
	opt := subset("li", "m88")
	opt.Size = 9
	faultsim.Inject(name(t, "li"), faultsim.Fault{Kind: faultsim.Panic})
	faultsim.Inject(name(t, "m88"), faultsim.Fault{Kind: faultsim.Panic})

	_, err := mustByID(t, "table51").Run(opt)
	if err == nil {
		t.Fatal("all-failed suite returned a result")
	}
	if !errors.Is(err, runerr.ErrWorkloadPanic) {
		t.Errorf("err = %v, want joined ErrWorkloadPanic failures", err)
	}
	for _, ab := range []string{"li", "m88"} {
		if !strings.Contains(err.Error(), name(t, ab)) {
			t.Errorf("error does not name %s: %v", ab, err)
		}
	}
}

// TestTransientPanicRetriesCleanly: a Times=1 panic poisons the first
// recording; the next experiment's lookup finds the poisoned entry gone
// and re-records successfully — the keep-going suite self-heals.
func TestTransientPanicRetriesCleanly(t *testing.T) {
	defer faultsim.Reset()
	opt := subset("su2", "vor")
	opt.Size = 11
	faultsim.Inject(name(t, "su2"), faultsim.Fault{Kind: faultsim.Panic, Times: 1})

	res1, err := mustByID(t, "table51").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res1.(*PartialResult); !ok {
		t.Fatalf("first run should be partial, got %T", res1)
	}
	res2, err := mustByID(t, "fig2").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res2.(*PartialResult); ok {
		t.Errorf("retry after transient fault still partial: %s", res2)
	}
}
