package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"rarpred/internal/pipeline"
	"rarpred/internal/workload"
)

// standaloneCell runs r's cell for w as a job of its own: r's job kind
// over a one-runner slice, the job a suite of r's experiment alone runs.
func standaloneCell(t *testing.T, opt Options, w workload.Workload, r CellRunner) any {
	t.Helper()
	run := passJob.runFused
	if _, timing := r.(simRunner); timing {
		run = simJob.runFused
	}
	rows, errs, _ := run(context.Background(), opt, w, []CellRunner{r})
	if errs[0] != nil {
		t.Fatalf("%s standalone: %v", w.Name, errs[0])
	}
	return rows[0]
}

// orderedExperiment is a synthetic experiment that appends each cell's
// "exp/workload" key to order as the cell runs: a functional one as it
// plans its pass, a timing one (timing set) as it builds its row from
// one base-processor simulation.
func orderedExperiment(id string, mu *sync.Mutex, order *[]string, timing bool) Experiment {
	note := func(w workload.Workload) countRow {
		mu.Lock()
		*order = append(*order, id+"/"+w.Name)
		mu.Unlock()
		return countRow{Workload: w, Value: len(w.Name)}
	}
	assemble := idLines(id)
	cells := tracedCells(func(p *pass) func() countRow {
		row := note(p.w)
		return func() countRow { return row }
	}, assemble)
	if timing {
		cells = simCells([]simSpec{baseSpec(pipeline.NoSpec)}, nil,
			func(w workload.Workload, _ []pipeline.Result) countRow { return note(w) }, assemble)
	}
	return Experiment{ID: id, Title: "synthetic " + id, Cells: cells}
}

// TestSuiteRunsCellsInPaperOrder: one worker runs the jobs in the paper
// order of their first cells — experiment by experiment, each over the
// workloads in suite order, so the timing experiment's jobs run before
// the passes — and each pass plans its cells in paper order.
func TestSuiteRunsCellsInPaperOrder(t *testing.T) {
	opt := leading(3)
	opt.Parallelism = 1
	var mu sync.Mutex
	var order []string
	runSuite(t, opt, []Experiment{
		orderedExperiment("synthT", &mu, &order, true),
		orderedExperiment("synthP1", &mu, &order, false),
		orderedExperiment("synthP2", &mu, &order, false),
	})
	var want []string
	for _, w := range opt.Workloads {
		want = append(want, "synthT/"+w.Name)
	}
	for _, w := range opt.Workloads {
		for _, id := range []string{"synthP1", "synthP2"} {
			want = append(want, id+"/"+w.Name)
		}
	}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("execution order = %v, want paper order %v", order, want)
	}
}
