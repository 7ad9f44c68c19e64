package experiments

import (
	"sync"
	"testing"

	"rarpred/internal/metrics"
)

// TestSuiteGaugesAndSpans: after a suite run the registry's gauges have
// retired every scheduled cell, and each job — one pass per workload —
// produced a span observation.
func TestSuiteGaugesAndSpans(t *testing.T) {
	opt := leading(3)
	opt.Parallelism = 2
	var mu sync.Mutex
	var order []string
	exps := []Experiment{
		orderedExperiment("synthG1", &mu, &order, false),
		orderedExperiment("synthG2", &mu, &order, false),
	}
	before := metrics.Default().Snapshot().Histograms["spans_ns{cell}"].Count
	runSuite(t, opt, exps)

	s := metrics.Default().Snapshot()
	cells := int64(len(exps) * len(opt.Workloads))
	if got := s.Gauges["suite.cells_total"]; got != cells {
		t.Fatalf("suite.cells_total = %d, want %d", got, cells)
	}
	if got := s.Gauges["suite.cells_done"]; got != cells {
		t.Fatalf("suite.cells_done = %d, want %d", got, cells)
	}
	if got, jobs := s.Histograms["spans_ns{cell}"].Count-before, uint64(len(opt.Workloads)); got != jobs {
		t.Fatalf("spans_ns{cell} grew by %d, want %d (one pass per workload)", got, jobs)
	}
}
