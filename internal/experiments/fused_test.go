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
// experiment's standalone cell (a pass with its one plan) on every
// workload. The standalone cells load what the suite recorded.
func TestSuitePassMatchesStandaloneCells(t *testing.T) {
	opt := tiny()
	opt.Parallelism = 2
	opt.Store = &fakeTier{}
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
	for _, e := range exps {
		for _, w := range opt.workloads() {
			want := standaloneCell(t, opt, w, recs[e.ID].passRunner)
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
	counters := []*metrics.Counter{metrics.Default().Counter("trace.events_replayed"), engineLoads, pipelineInsts}
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

func boxRows[T any](rows []T) []any {
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// TestFusedJobFailsAsOne: a workload's job fails as one, for both job
// kinds. Each row runs three experiments as one suite over three
// workloads: on the second, a synthetic experiment's row step panics; on
// the third, every recording panics. Each of those two workloads' cells
// fails with ErrWorkloadPanic in every experiment, each annotation
// naming its own experiment, and each workload's job, the panicking
// lookup's included, asks the store for its recording once. The first
// workload's rows equal its standalone cells.
func TestFusedJobFailsAsOne(t *testing.T) {
	for _, c := range []struct {
		name    string
		abbrevs []string // healthy, row step panics, lookup panics
		size    int
		timing  bool
		exps    func(bad string) []Experiment
		rows    func(Result) []any // a real experiment's rows, nil for the synthetic one
	}{
		{"pass", []string{"go", "gcc", "tom"}, 15, false,
			func(bad string) []Experiment {
				return []Experiment{mustByID(t, "fig2"), rowBomb(bad), mustByID(t, "table51")}
			},
			func(r Result) []any {
				switch r := r.(type) {
				case *Fig2Result:
					return boxRows(r.Rows)
				case *Table51Result:
					return boxRows(r.Rows)
				}
				return nil
			}},
		{"timing", []string{"apl", "go", "tom"}, 3, true,
			func(bad string) []Experiment {
				return []Experiment{mustByID(t, "fig10"), simBomb(bad), mustByID(t, "ablmemspec")}
			},
			timingRows},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer faultsim.Reset()
			opt := subset(c.abbrevs...)
			opt.Size = c.size
			opt.Parallelism = 2
			healthy, rowBad, lookupBad := opt.Workloads[0], opt.Workloads[1], opt.Workloads[2]
			tier := &fakeTier{}
			opt.Store = tier
			faultsim.Inject(lookupBad.Name, faultsim.Fault{Kind: faultsim.Panic})

			exps := c.exps(rowBad.Name)
			items := suiteRows(opt, exps)
			for _, w := range opt.Workloads {
				key := trace.Key{Workload: w.Name, Size: c.size, MaxInsts: maxInsts, Timing: c.timing}
				if got := tier.loadsOf(key); got != 1 {
					t.Errorf("%s's job asked the store for its recording %d times, want once", w.Name, got)
				}
			}

			for _, e := range exps {
				item := items[e.ID]
				p, ok := item.Result.(*PartialResult)
				if item.Err != nil || !ok {
					t.Fatalf("%s = %v, %v; want a partial result", e.ID, item.Result, item.Err)
				}
				if len(p.Fails) != 2 {
					t.Fatalf("%s failures = %v, want one on %s and one on %s", e.ID, p.Fails, rowBad.Name, lookupBad.Name)
				}
				for k, w := range []workload.Workload{rowBad, lookupBad} {
					if f := p.Fails[k]; f.Workload != w.Name || f.Experiment != e.ID || !errors.Is(f, runerr.ErrWorkloadPanic) {
						t.Errorf("%s failure %d = %v, want a panic on %s", e.ID, k, f, w.Name)
					}
					if want := "!!   " + e.ID + "/" + w.Name + ": "; !strings.Contains(p.String(), want) {
						t.Errorf("%s lacks the annotation %q:\n%s", e.ID, want, p)
					}
				}
				for wi, cell := range item.Cells {
					if !cell.Fused || cell.Failed != (wi > 0) {
						t.Errorf("%s cell %+v, want fused, and failed unless on %s", e.ID, cell, healthy.Name)
					}
				}
				rows := c.rows(p.Result)
				if rows == nil {
					if got := p.Result.String(); !strings.HasPrefix(got, healthy.Name+"=") || strings.Count(got, "=") != 1 {
						t.Errorf("%s survivors = %q, want one row on %s", e.ID, got, healthy.Name)
					}
					continue
				}
				want := standaloneCell(t, opt, healthy, e.Cells)
				if len(rows) != 1 || fmt.Sprintf("%#v", rows[0]) != fmt.Sprintf("%#v", want) {
					t.Errorf("%s survivors differ from the standalone cell on %s:\n got %#v\nwant %#v", e.ID, healthy.Name, rows, want)
				}
			}
		})
	}
}
