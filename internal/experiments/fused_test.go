package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/faultsim"
	"rarpred/internal/metrics"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// rowRecorder wraps a functional experiment's runner and keeps the row
// each of its suite cells produces, by workload name.
type rowRecorder struct {
	passRunner
	mu   *sync.Mutex
	rows map[string]any
}

func (r rowRecorder) planCell(p *pass) func() any {
	finish := r.passRunner.planCell(p)
	return func() any {
		row := finish()
		r.mu.Lock()
		r.rows[p.w.Name] = row
		r.mu.Unlock()
		return row
	}
}

// TestSuitePassMatchesStandaloneCells: with one pass per workload for
// every functional experiment, each cell's row equals the row of that
// experiment's standalone cell (a pass of its own) on every workload.
func TestSuitePassMatchesStandaloneCells(t *testing.T) {
	opt := tiny()
	opt.Parallelism = 2
	var exps []Experiment
	recs := map[string]rowRecorder{}
	for _, e := range All() {
		r, ok := e.Cells.(passRunner)
		if !ok {
			continue
		}
		rec := rowRecorder{passRunner: r, mu: &sync.Mutex{}, rows: map[string]any{}}
		recs[e.ID] = rec
		e.Cells = rec
		exps = append(exps, e)
	}
	if len(exps) != 14 {
		t.Fatalf("%d functional experiments, want 14", len(exps))
	}
	RunSuite(opt, exps, func(item SuiteItem) bool {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Exp.ID, item.Err)
		}
		if _, partial := item.Result.(*PartialResult); partial {
			t.Fatalf("%s: %s", item.Exp.ID, item.Result)
		}
		for _, c := range item.Cells {
			if !c.Fused {
				t.Errorf("%s/%s did not run in its workload's pass", item.Exp.ID, c.Workload)
			}
		}
		return true
	})
	ctx := context.Background()
	for _, e := range exps {
		for _, w := range opt.workloads() {
			want, err := recs[e.ID].passRunner.Cell(ctx, opt, w)
			if err != nil {
				t.Fatalf("%s/%s standalone: %v", e.ID, w.Name, err)
			}
			// %#v rather than reflect.DeepEqual: Workload carries a
			// generator func, and DeepEqual calls any non-nil func unequal.
			if got, want := fmt.Sprintf("%#v", recs[e.ID].rows[w.Name]), fmt.Sprintf("%#v", want); got != want {
				t.Errorf("%s/%s: suite row differs from the standalone cell:\n got %s\nwant %s", e.ID, w.Name, got, want)
			}
		}
	}
}

// pipelineInsts counts simulations: every pipeline run adds its
// committed instructions to it.
var pipelineInsts = metrics.Default().Counter("pipeline.insts_committed")

// grown runs f and returns how much trace.events_replayed,
// cloak.engine_loads and pipeline.insts_committed grew: the memory
// stream events it replayed, the engine loads it simulated and the
// instructions its timing simulations committed.
func grown(f func()) (d [3]uint64) {
	counters := []*metrics.Counter{trace.EventsReplayed, engineLoads, pipelineInsts}
	var before [3]uint64
	for i, c := range counters {
		before[i] = c.Value()
	}
	f()
	for i, c := range counters {
		d[i] = c.Value() - before[i]
	}
	return d
}

// suiteWork runs exps as one suite, failing the test on any experiment
// error, and returns each experiment's item by id and the suite's work
// as grown counts it.
func suiteWork(t *testing.T, opt Options, exps []Experiment) (map[string]SuiteItem, [3]uint64) {
	t.Helper()
	var items map[string]SuiteItem
	d := grown(func() { items = suiteRows(opt, exps) })
	for _, e := range exps {
		if err := items[e.ID].Err; err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
	}
	return items, d
}

// TestSuiteFunctionalWorkCounts pins the functional work of `rarsim -exp
// all -size 4` without -check, so a change that raises any of it fails
// here: each memory stream is replayed twice (the shared pass and
// ablprofile's software pass), and the loads of ten engines are
// simulated per stream (nine distinct configs plus ablprofile's static
// engine). The functional experiments simulate no pipeline, and a
// table51-only suite registers nothing and replays nothing.
// TestSimMemoSuiteSimulatesEachConfigOnce pins the timing share of the
// same run.
func TestSuiteFunctionalWorkCounts(t *testing.T) {
	opt := tiny()
	if _, d := suiteWork(t, opt, []Experiment{mustByID(t, "table51")}); d != [3]uint64{} {
		t.Errorf("table51 alone replayed, loaded and committed %v, want none", d)
	}
	var functional []Experiment
	for _, e := range All() {
		if _, timing := e.Cells.(simRunner); !timing {
			functional = append(functional, e)
		}
	}
	_, d := suiteWork(t, opt, functional)
	if want := [3]uint64{1_152_044, 4_526_850, 0}; d != want {
		t.Errorf("trace.events_replayed, cloak.engine_loads, pipeline.insts_committed grew by %v, want %v", d, want)
	}
	var events, loads uint64
	for _, w := range opt.workloads() {
		tr, err := referenceStream(context.Background(), opt, w)
		if err != nil {
			t.Fatal(err)
		}
		events += uint64(tr.Len())
		loads += tr.Loads()
	}
	if d[0] != 2*events {
		t.Errorf("trace.events_replayed grew by %d, want 2 passes x %d events", d[0], events)
	}
	if d[1] != 10*loads {
		t.Errorf("cloak.engine_loads grew by %d, want 10 engines x %d loads", d[1], loads)
	}
}

// rowBomb is a synthetic functional experiment whose row step panics on
// one workload. Its plan registers an engine, so its pass replays.
func rowBomb(bad string) Experiment {
	return Experiment{
		ID:    "rowbomb",
		Title: "synthetic row step that panics on " + bad,
		Cells: tracedCells(
			func(p *pass) func() countRow {
				engine := p.bank.Engine(cloak.DefaultConfig())
				return func() countRow {
					if p.w.Name == bad {
						panic("row step exploded")
					}
					return countRow{Workload: p.w, Value: int(engine.Stats().Loads)}
				}
			},
			countLines),
	}
}

// countLines renders one "workload=value" line per surviving row.
func countLines(_ Options, _ []workload.Workload, rows []countRow, fails []*runerr.WorkloadError) (Result, error) {
	res := countResult{}
	for _, r := range rows {
		res.lines = append(res.lines, fmt.Sprintf("%s=%d", r.Name, r.Value))
	}
	return annotate(res, fails), nil
}

// suiteRows runs exps as a suite and returns each experiment's item by
// id.
func suiteRows(opt Options, exps []Experiment) map[string]SuiteItem {
	items := map[string]SuiteItem{}
	RunSuite(opt, exps, func(item SuiteItem) bool {
		items[item.Exp.ID] = item
		return true
	})
	return items
}

// TestFusedPassPanicFailsOnlyItsCell: a row step that panics fails the
// pass of its workload's job, whose cells then rerun alone — only the
// faulty experiment's cell fails, and the other experiments' rows for
// that workload equal their standalone cells.
func TestFusedPassPanicFailsOnlyItsCell(t *testing.T) {
	opt := subset("go", "gcc", "tom")
	opt.Size = 15
	opt.Parallelism = 2
	bad := opt.Workloads[1]
	items := suiteRows(opt, []Experiment{mustByID(t, "fig2"), rowBomb(bad.Name), mustByID(t, "table51")})

	bomb := items["rowbomb"]
	p, ok := bomb.Result.(*PartialResult)
	if bomb.Err != nil || !ok {
		t.Fatalf("rowbomb = %v, %v; want a partial result", bomb.Result, bomb.Err)
	}
	if len(p.Fails) != 1 || p.Fails[0].Workload != bad.Name || !errors.Is(p.Fails[0], runerr.ErrWorkloadPanic) {
		t.Fatalf("rowbomb failures = %v, want one panic on %s", p.Fails, bad.Name)
	}
	if got := strings.Count(p.String(), "="); got != 2 {
		t.Errorf("rowbomb rendered %d surviving rows, want 2:\n%s", got, p)
	}

	ctx := context.Background()
	for _, c := range []struct {
		id    string
		cells CellRunner
		rows  func(Result) []any
	}{
		{"fig2", fig2Cells, func(r Result) []any { return boxRows(r.(*Fig2Result).Rows) }},
		{"table51", table51Cells, func(r Result) []any { return boxRows(r.(*Table51Result).Rows) }},
	} {
		item := items[c.id]
		if item.Err != nil {
			t.Fatalf("%s: %v", c.id, item.Err)
		}
		if _, partial := item.Result.(*PartialResult); partial {
			t.Fatalf("%s failed a cell: %s", c.id, item.Result)
		}
		if !item.Cells[1].Fused {
			t.Errorf("%s/%s did not run in a fused job", c.id, bad.Name)
		}
		want, err := c.cells.Cell(ctx, opt, bad)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", c.rows(item.Result)[1]), fmt.Sprintf("%#v", want); got != want {
			t.Errorf("%s/%s: row after the rerun differs from the standalone cell:\n got %s\nwant %s", c.id, bad.Name, got, want)
		}
	}
}

func boxRows[T any](rows []T) []any {
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// TestFusedLookupFailureFailsFirstCell: a stream lookup that fails
// belongs to the job's first cell, in paper order; the rest look the
// stream up again, which re-records it once a transient fault has
// passed.
func TestFusedLookupFailureFailsFirstCell(t *testing.T) {
	defer faultsim.Reset()
	opt := subset("go", "gcc")
	opt.Size = 27
	bad := opt.Workloads[1]
	traceCache.Drop(trace.Key{Workload: bad.Name, Size: opt.Size, MaxInsts: opt.maxInsts()})
	faultsim.Inject(bad.Name, faultsim.Fault{Kind: faultsim.Panic, Times: 1})

	items := suiteRows(opt, []Experiment{mustByID(t, "table51"), mustByID(t, "fig2")})
	p, ok := items["table51"].Result.(*PartialResult)
	if !ok || len(p.Fails) != 1 || p.Fails[0].Workload != bad.Name || !errors.Is(p.Fails[0], runerr.ErrWorkloadPanic) {
		t.Fatalf("table51 = %v, %v; want one panic on %s", items["table51"].Result, items["table51"].Err, bad.Name)
	}
	fig2 := items["fig2"]
	if _, partial := fig2.Result.(*PartialResult); fig2.Err != nil || partial {
		t.Fatalf("fig2 did not recover after the first cell took the failed lookup: %v, %v", fig2.Result, fig2.Err)
	}
}
