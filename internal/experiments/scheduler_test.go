package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rarpred/internal/runerr"
	"rarpred/internal/workload"
)

// orderedExperiment is a synthetic cell experiment that appends each
// cell's "exp/workload" key to order as it starts.
func orderedExperiment(id string, mu *sync.Mutex, order *[]string) Experiment {
	return Experiment{
		ID:    id,
		Title: "synthetic " + id,
		Cells: cells(
			func(ctx context.Context, opt Options, w workload.Workload) (countRow, error) {
				mu.Lock()
				*order = append(*order, id+"/"+w.Name)
				mu.Unlock()
				return countRow{Workload: w, Value: len(w.Name)}, nil
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

// TestSuiteRunsCellsInPaperOrder: one worker runs the cells in
// construction order — experiment by experiment, each over the
// workloads in suite order.
func TestSuiteRunsCellsInPaperOrder(t *testing.T) {
	ws := workload.All()[:3]
	var mu sync.Mutex
	var order []string
	renderSuite(t, Options{Workloads: ws, Parallelism: 1}, []Experiment{
		orderedExperiment("synthP1", &mu, &order),
		orderedExperiment("synthP2", &mu, &order),
	})
	var want []string
	for _, id := range []string{"synthP1", "synthP2"} {
		for _, w := range ws {
			want = append(want, id+"/"+w.Name)
		}
	}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("execution order = %v, want paper order %v", order, want)
	}
}
