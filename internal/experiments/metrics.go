package experiments

import "rarpred/internal/metrics"

// Suite-level instruments on the default registry. RunSuite resets the
// gauges at suite start (a process runs suites sequentially), workers
// update them as jobs move through the pool, and the -progress ticker
// and the -benchjson snapshot read them lock-free:
//
//	suite.cells_total / suite.cells_done — scheduled (non-resumed) cells
//	suite.queue_depth                    — cells not yet picked up
//	suite.workers / suite.workers_busy   — pool size and occupancy
//
// Wall time inside cells is attributed through spans (spans_ns{cell},
// {cell/record}, {cell/replay}, {assemble}).
//
// cloak.engine_loads counts the loads the functional experiments'
// cloaking engines simulate, added once per engine when its pass ends,
// next to trace.events_replayed (events decoded by trace.Stream
// replays): together they measure a suite's functional work.
var (
	engineLoads = metrics.Default().Counter("cloak.engine_loads")

	suiteCellsTotal  = metrics.Default().Gauge("suite.cells_total")
	suiteCellsDone   = metrics.Default().Gauge("suite.cells_done")
	suiteQueueDepth  = metrics.Default().Gauge("suite.queue_depth")
	suiteWorkers     = metrics.Default().Gauge("suite.workers")
	suiteWorkersBusy = metrics.Default().Gauge("suite.workers_busy")
)

func init() {
	// The process-wide stream cache reports through the same registry
	// the CLI snapshots, so -benchjson and -progress see one set of
	// books.
	traceCache.RegisterMetrics(metrics.Default(), "trace.cache")
}

// startSpan opens a phase span on the default registry.
func startSpan(path string) metrics.Span { return metrics.Default().StartSpan(path) }
