package experiments

import (
	"sync"
	"testing"

	"rarpred/internal/metrics"
	"rarpred/internal/workload"
)

// TestSuiteGaugesAndSpans: after a suite run the registry's gauges have
// retired every scheduled cell, the queue and busy-worker gauges are
// back to zero, and each cell produced a span observation.
func TestSuiteGaugesAndSpans(t *testing.T) {
	ws := workload.All()[:3]
	var mu sync.Mutex
	var order []string
	exps := []Experiment{
		orderedExperiment("synthG1", &mu, &order),
		orderedExperiment("synthG2", &mu, &order),
	}
	before := metrics.Default().Snapshot().Histograms["spans_ns{cell}"].Count
	renderSuite(t, Options{Workloads: ws, Parallelism: 2}, exps)

	s := metrics.Default().Snapshot()
	cells := int64(len(exps) * len(ws))
	if got := s.Gauges["suite.cells_total"]; got != cells {
		t.Fatalf("suite.cells_total = %d, want %d", got, cells)
	}
	if got := s.Gauges["suite.cells_done"]; got != cells {
		t.Fatalf("suite.cells_done = %d, want %d", got, cells)
	}
	if got := s.Gauges["suite.queue_depth"]; got != 0 {
		t.Fatalf("suite.queue_depth = %d after the run, want 0", got)
	}
	if got := s.Gauges["suite.workers_busy"]; got != 0 {
		t.Fatalf("suite.workers_busy = %d after the run, want 0", got)
	}
	if got := s.Gauges["suite.workers"]; got != 2 {
		t.Fatalf("suite.workers = %d, want 2", got)
	}
	if got := s.Histograms["spans_ns{cell}"].Count - before; got != uint64(cells) {
		t.Fatalf("spans_ns{cell} grew by %d, want %d", got, cells)
	}
}
