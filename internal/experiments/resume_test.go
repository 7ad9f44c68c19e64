package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rarpred/internal/runerr"
	"rarpred/internal/workload"
)

// memJournal is an in-memory SuiteJournal standing in for the store's
// durable one. It counts the calls made to it.
type memJournal struct {
	mu      sync.Mutex
	m       map[string][]byte
	lookups int
	records int
}

func (j *memJournal) Lookup(exp, wl string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lookups++
	row, ok := j.m[exp+"/"+wl]
	return row, ok
}

func (j *memJournal) Record(exp, wl string, row []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.m == nil {
		j.m = make(map[string][]byte)
	}
	j.m[exp+"/"+wl] = row
	j.records++
	return nil
}

// countRow is the cell output of the synthetic resume experiments.
type countRow struct {
	workload.Workload
	Value int
}

// countResult renders rows deterministically for output comparison.
type countResult struct{ lines []string }

func (r countResult) String() string { return strings.Join(r.lines, "\n") + "\n" }

// countingExperiment builds a synthetic functional experiment whose
// cells are counted as they plan their pass, so resume can prove cells
// did not re-run. Its row step panics on the workload named fail.
func countingExperiment(id string, calls *atomic.Int64, fail string) Experiment {
	return Experiment{
		ID:    id,
		Title: "synthetic " + id,
		Cells: tracedCells(
			func(p *pass) func() countRow {
				calls.Add(1)
				return func() countRow {
					if p.w.Name == fail {
						panic("synthetic cell failure")
					}
					return countRow{Workload: p.w, Value: len(p.w.Name) + len(id)}
				}
			},
			func(opt Options, ws []workload.Workload, rows []countRow, fails []*runerr.WorkloadError) (Result, error) {
				res := countResult{}
				for _, r := range rows {
					res.lines = append(res.lines, fmt.Sprintf("%s %s=%d", id, r.Name, r.Value))
				}
				return annotate(res, fails), nil
			},
		),
	}
}

// renderSuite runs the suite and returns the concatenated rendered
// output plus per-experiment cell stats.
func renderSuite(t *testing.T, opt Options, exps []Experiment) (string, [][]CellStat) {
	t.Helper()
	var sb strings.Builder
	var cellStats [][]CellStat
	RunSuite(opt, exps, func(item SuiteItem) bool {
		if item.Err != nil {
			t.Fatalf("suite item %s failed: %v", item.Exp.ID, item.Err)
		}
		fmt.Fprintf(&sb, "== %s\n%s", item.Exp.ID, item.Result.String())
		cellStats = append(cellStats, item.Cells)
		return true
	})
	return sb.String(), cellStats
}

func TestSuiteResumeSkipsJournaledCells(t *testing.T) {
	opt := leading(5)
	ws := opt.Workloads
	jnl := &memJournal{}
	opt.Journal = jnl
	var calls1, calls2 atomic.Int64

	ref, _ := renderSuite(t, opt, []Experiment{
		countingExperiment("synthA", &calls1, ""),
		countingExperiment("synthB", &calls1, ""),
	})
	if got, want := calls1.Load(), int64(2*len(ws)); got != want {
		t.Fatalf("first run invoked %d cells, want %d", got, want)
	}
	if jnl.records != 2*len(ws) {
		t.Fatalf("first run journaled %d cells, want %d", jnl.records, 2*len(ws))
	}

	// Second run over the same journal: every cell replays, none run,
	// and the rendered output is byte-identical.
	out, stats := renderSuite(t, opt, []Experiment{
		countingExperiment("synthA", &calls2, ""),
		countingExperiment("synthB", &calls2, ""),
	})
	if calls2.Load() != 0 {
		t.Fatalf("resumed run invoked %d cells, want 0", calls2.Load())
	}
	if out != ref {
		t.Fatalf("resumed output differs:\n--- fresh ---\n%s--- resumed ---\n%s", ref, out)
	}
	for _, cs := range stats {
		for _, c := range cs {
			if !c.Resumed {
				t.Fatalf("cell %s not marked Resumed", c.Workload)
			}
		}
	}
}

// TestSuiteResumePartialJournal: only some cells journaled — the rest
// run, and the combined output matches an uninterrupted run.
func TestSuiteResumePartialJournal(t *testing.T) {
	opt := leading(6)
	ws := opt.Workloads
	var refCalls atomic.Int64
	ref, _ := renderSuite(t, opt, []Experiment{
		countingExperiment("synthC", &refCalls, ""),
	})

	// Journal only the even-indexed workloads, as an interrupted run
	// might have.
	jnl := &memJournal{}
	var firstCalls atomic.Int64
	first := countingExperiment("synthC", &firstCalls, "")
	for i, w := range ws {
		if i%2 != 0 {
			continue
		}
		enc, err := first.Cells.EncodeRow(standaloneCell(t, opt, w, first.Cells))
		if err != nil {
			t.Fatal(err)
		}
		jnl.Record("synthC", w.Name, enc)
	}

	var resumedCalls atomic.Int64
	opt.Journal = jnl
	out, stats := renderSuite(t, opt,
		[]Experiment{countingExperiment("synthC", &resumedCalls, "")})
	if out != ref {
		t.Fatalf("partially resumed output differs:\n--- fresh ---\n%s--- resumed ---\n%s", ref, out)
	}
	if got, want := resumedCalls.Load(), int64(len(ws)/2); got != want {
		t.Fatalf("partial resume invoked %d cells, want %d", got, want)
	}
	resumed := 0
	for _, c := range stats[0] {
		if c.Resumed {
			resumed++
		}
	}
	if resumed != (len(ws)+1)/2 {
		t.Fatalf("%d cells marked Resumed, want %d", resumed, (len(ws)+1)/2)
	}
}

// TestSuiteResumeFailedCellsRerun: failures are never journaled, so a
// resumed run retries them — and, the fault now gone, succeeds.
func TestSuiteResumeFailedCellsRerun(t *testing.T) {
	plain := leading(4)
	ws := plain.Workloads
	bad := ws[2].Name
	jnl := &memJournal{}
	opt := plain
	opt.Journal = jnl
	var calls atomic.Int64

	var sawPartial bool
	RunSuite(opt,
		[]Experiment{countingExperiment("synthD", &calls, bad)},
		func(item SuiteItem) bool {
			if item.Err != nil {
				t.Fatalf("suite failed outright: %v", item.Err)
			}
			_, sawPartial = item.Result.(*PartialResult)
			return true
		})
	if !sawPartial {
		t.Fatal("failing cell did not produce a partial result")
	}
	if jnl.records != len(ws)-1 {
		t.Fatalf("journaled %d cells, want %d (failures excluded)", jnl.records, len(ws)-1)
	}

	// Resume without the injected failure: only the failed cell runs.
	var retryCalls atomic.Int64
	out, _ := renderSuite(t, opt,
		[]Experiment{countingExperiment("synthD", &retryCalls, "")})
	if retryCalls.Load() != 1 {
		t.Fatalf("resume invoked %d cells, want 1 (the previously failed one)", retryCalls.Load())
	}
	var refCalls atomic.Int64
	ref, _ := renderSuite(t, plain,
		[]Experiment{countingExperiment("synthD", &refCalls, "")})
	if out != ref {
		t.Fatalf("healed resume differs from clean run:\n%s\nvs\n%s", out, ref)
	}
}

// TestSuiteResumeUndecodableRowReruns: a journal row the codec cannot
// decode (foreign layout) silently re-runs the cell instead of failing
// the suite.
func TestSuiteResumeUndecodableRowReruns(t *testing.T) {
	opt := leading(3)
	jnl := &memJournal{}
	for _, w := range opt.Workloads {
		jnl.Record("synthE", w.Name, []byte("not a gob row"))
	}
	opt.Journal = jnl
	var calls atomic.Int64
	renderSuite(t, opt, []Experiment{countingExperiment("synthE", &calls, "")})
	if got, want := calls.Load(), int64(len(opt.Workloads)); got != want {
		t.Fatalf("undecodable rows: %d cells ran, want %d", got, want)
	}
}

// TestRunNeverJournals: Experiment.Run ignores Options.Journal. Given a
// journal that holds every row it would produce, it neither looks a
// cell up nor records one, and runs every cell — so -check's shadow run
// stays independent of the main run's journal.
func TestRunNeverJournals(t *testing.T) {
	opt := leading(3)
	jnl := &memJournal{}
	opt.Journal = jnl
	var calls atomic.Int64
	renderSuite(t, opt, []Experiment{countingExperiment("synthH", &calls, "")})
	if jnl.records != len(opt.Workloads) {
		t.Fatalf("setup: the suite journaled %d rows, want %d", jnl.records, len(opt.Workloads))
	}
	lookups, records := jnl.lookups, jnl.records

	calls.Store(0)
	if _, err := countingExperiment("synthH", &calls, "").Run(opt); err != nil {
		t.Fatal(err)
	}
	if jnl.lookups != lookups || jnl.records != records {
		t.Errorf("Run made %d lookups and %d records, want none",
			jnl.lookups-lookups, jnl.records-records)
	}
	if got, want := calls.Load(), int64(len(opt.Workloads)); got != want {
		t.Errorf("Run ran %d cells, want all %d", got, want)
	}
}

// TestRowEncodingRehydratesWorkload: a row's embedded Workload survives
// the journal's gob round trip with its registry identity intact —
// including the unexported build function, restored by name.
func TestRowEncodingRehydratesWorkload(t *testing.T) {
	w := workload.All()[0]
	var calls atomic.Int64
	e := countingExperiment("synthF", &calls, "")
	enc, err := e.Cells.EncodeRow(countRow{Workload: w, Value: 9})
	if err != nil {
		t.Fatal(err)
	}
	back, err := e.Cells.DecodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	row := back.(countRow)
	if row.Name != w.Name || row.Abbrev != w.Abbrev || row.Value != 9 {
		t.Fatalf("row drifted: %+v", row)
	}
	// The decoded workload must still assemble (build rehydrated from
	// the registry by name).
	if p := row.Assemble(4); p == nil {
		t.Fatal("decoded workload cannot assemble")
	}
}
