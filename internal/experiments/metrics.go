package experiments

import "rarpred/internal/metrics"

// Suite-level instruments on the default registry. RunSuite resets the
// gauges at suite start (a process runs suites sequentially), workers
// update them as cells move through the pool, and the -progress ticker
// and /metrics endpoint read them lock-free:
//
//	suite.cells_total / suite.cells_done — scheduled (non-resumed) cells
//	suite.queue_depth                    — cells not yet picked up
//	suite.workers / suite.workers_busy   — pool size and occupancy
//
// Wall time inside cells is attributed through spans (spans_ns{cell},
// {cell/record}, {cell/replay}, {assemble}).
var (
	suiteCellsTotal  = metrics.Default().Gauge("suite.cells_total")
	suiteCellsDone   = metrics.Default().Gauge("suite.cells_done")
	suiteQueueDepth  = metrics.Default().Gauge("suite.queue_depth")
	suiteWorkers     = metrics.Default().Gauge("suite.workers")
	suiteWorkersBusy = metrics.Default().Gauge("suite.workers_busy")
)

func init() {
	// The process-wide stream cache reports through the same registry
	// the CLI snapshots, so -benchjson, -progress, and /metrics all see
	// one set of books.
	traceCache.RegisterMetrics(metrics.Default(), "trace.cache")
}

// startSpan opens a phase span on the default registry.
func startSpan(path string) metrics.Span { return metrics.Default().StartSpan(path) }
