package experiments

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rarpred/internal/runerr"
)

// SuiteItem is one experiment's completed outcome, delivered to the
// caller in suite (paper) order as soon as it and every experiment
// before it have finished.
type SuiteItem struct {
	// Index is the experiment's position in the suite.
	Index int
	Exp   Experiment
	// Result and Err mirror Experiment.Run's contract (Err is stamped
	// with the experiment id; a partial run arrives as *PartialResult).
	Result Result
	Err    error
	// NotRun reports that the run context ended before any of the
	// experiment's cells started; Err carries the context error.
	NotRun bool
	// Elapsed spans the experiment's first cell starting to its result
	// assembling. Under the shared pool experiments overlap, so these
	// durations sum to more than the suite's wall time.
	Elapsed time.Duration
	// Cells holds per-cell timings in workload order.
	Cells []CellStat
}

// CellStat times one (experiment × workload) cell.
type CellStat struct {
	Workload string
	Elapsed  time.Duration
	Failed   bool
	// Resumed reports the cell was replayed from the suite run journal
	// (Options.Journal) instead of simulated: a previous interrupted run
	// completed it and journaled its row.
	Resumed bool
}

// SuiteStats summarises a RunSuite call for benchmarking: utilization is
// Busy / (Wall × Workers).
type SuiteStats struct {
	Experiments int
	Cells       int
	Workers     int
	Wall        time.Duration
	// Busy is total time workers spent executing cells (excludes idle
	// waits on the jobs queue and delivery).
	Busy time.Duration
}

// suiteExp is one experiment's in-flight state under the pool.
type suiteExp struct {
	exp   Experiment
	rows  []any
	errs  []error
	stats []CellStat

	pending   atomic.Int32 // cells not yet finished
	startOnce sync.Once
	start     time.Time
	started   atomic.Bool // any cell began with the run context alive
}

// runWhole runs an undecomposed experiment (no Cells) as a single unit
// with the same panic isolation a cell gets, so a panicking Run fails
// its experiment rather than the pool worker executing it.
func runWhole(opt Options, e Experiment) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, runerr.FromPanic(e.ID, p, debug.Stack())
		}
	}()
	return e.Run(opt)
}

// RunSuite executes the experiments as one work pool over their
// (experiment × workload) cells: every cell from every experiment feeds
// a single queue drained by Options.parallelism() workers, so a slow
// experiment no longer serialises the suite behind it — its cells
// interleave with everyone else's. Cells run under runCell's isolation
// (panic capture, per-workload deadline), identical to the standalone
// per-experiment pools, and each workload's stream records once via the
// shared cache's single-flight no matter how many experiments' cells
// are waiting on it. The queue holds the cells in paper order:
// experiment by experiment, each over the workloads in suite order.
// Timing cells share one simMemo for the call, so a configuration that
// several timing experiments report is simulated once per workload.
//
// Results are assembled the moment an experiment's last cell retires and
// delivered in suite order — deliver(item) is called exactly once per
// experiment, ordered, from whichever worker completed the ordering
// gap. deliver returning false stops the suite: the remaining cells are
// drained without running and nothing further is delivered (matching
// the sequential harness, which returns on a non-keepgoing failure).
//
// If the run context ends mid-suite, experiments whose cells never
// started are delivered with NotRun set; experiments caught mid-flight
// get the context error as a hard failure, exactly like their
// standalone Run would.
//
// With Options.Journal set the suite is resumable: cells a previous run
// journaled are prefilled from their decoded rows (CellStat.Resumed)
// and never scheduled — no simulation, no stream lookup — and each cell
// that completes successfully in this run is journaled as it retires.
// Because delivery order, row order, and assembly are unchanged, a
// resumed run's aggregate output is byte-identical to an uninterrupted
// one.
func RunSuite(opt Options, exps []Experiment, deliver func(SuiteItem) bool) SuiteStats {
	begin := time.Now()
	opt.sims = newSimMemo()
	runCtx := opt.ctx()
	// The internal cancel propagates a deliver=false stop to every
	// not-yet-run cell; the run context's own end is observed through it
	// too.
	ctx, cancel := context.WithCancel(runCtx)
	defer cancel()

	ws := opt.workloads()
	states := make([]*suiteExp, len(exps))
	type job struct{ ei, wi int }
	var jobs []job
	var fullyResumed []int // experiments with every cell journaled
	for ei, e := range exps {
		st := &suiteExp{exp: e}
		if e.Cells == nil {
			// No cell decomposition: the whole experiment is one unit.
			st.rows = make([]any, 1)
			st.errs = make([]error, 1)
			st.stats = make([]CellStat, 1)
			st.pending.Store(1)
			jobs = append(jobs, job{ei: ei, wi: -1})
		} else {
			st.rows = make([]any, len(ws))
			st.errs = make([]error, len(ws))
			st.stats = make([]CellStat, len(ws))
			// Prefill cells the journal already holds: the decoded row
			// lands exactly where the worker would have put it, so
			// assembly cannot tell a resumed cell from a fresh one. An
			// undecodable journal row (foreign build's gob layout, say)
			// just re-runs the cell — resume is an optimisation, never a
			// correctness risk.
			resumed := make([]bool, len(ws))
			if codec, ok := e.Cells.(RowCodec); ok && opt.Journal != nil {
				for wi, w := range ws {
					enc, hit := opt.Journal.Lookup(e.ID, w.Name)
					if !hit {
						continue
					}
					row, derr := codec.DecodeRow(enc)
					if derr != nil {
						continue
					}
					resumed[wi] = true
					st.rows[wi] = row
					st.stats[wi] = CellStat{Workload: w.Name, Resumed: true}
				}
			}
			remaining := 0
			for wi := range ws {
				if resumed[wi] {
					continue
				}
				remaining++
				jobs = append(jobs, job{ei: ei, wi: wi})
			}
			st.pending.Store(int32(remaining))
			if remaining == 0 {
				st.startOnce.Do(func() { st.start = time.Now() })
				fullyResumed = append(fullyResumed, ei)
			}
		}
		states[ei] = st
	}

	// In-order delivery: completed experiments buffer until the suite
	// prefix before them is delivered.
	var (
		delMu   sync.Mutex
		ready   = make([]*SuiteItem, len(exps))
		next    int
		stopped bool
	)
	complete := func(ei int, item SuiteItem) {
		delMu.Lock()
		defer delMu.Unlock()
		ready[ei] = &item
		for next < len(exps) && ready[next] != nil {
			if !stopped && !deliver(*ready[next]) {
				stopped = true
				cancel()
			}
			ready[next] = nil // release the Result once delivered
			next++
		}
	}

	assemble := func(ei int) {
		st := states[ei]
		item := SuiteItem{Index: ei, Exp: st.exp, Elapsed: time.Since(st.start), Cells: st.stats}
		switch {
		case st.exp.Cells == nil:
			item.Result, _ = st.rows[0].(Result)
			item.Err = st.errs[0]
			item.NotRun = !st.started.Load() && runCtx.Err() != nil
		case runCtx.Err() != nil && !st.started.Load():
			item.NotRun = true
			item.Err = runCtx.Err()
		case runCtx.Err() != nil:
			// Hard abort mid-experiment, exactly like runCells (and the
			// error is stamped with the experiment id, like Run's).
			_, item.Err = stamp(st.exp.ID, nil, runerr.Classify(runCtx.Err()))
		default:
			outRows, outWs, fails, err := collectCells(ws, st.rows, st.errs)
			if err == nil {
				item.Result, err = assembleCells(opt, st.exp.Cells, outWs, outRows, fails)
			}
			item.Result, item.Err = stamp(st.exp.ID, item.Result, err)
		}
		if item.Err != nil {
			item.Result = nil
		}
		complete(ei, item)
	}

	// Experiments the journal completed outright assemble before the pool
	// starts: their rows are all present, and in-order delivery buffers
	// them behind any still-running predecessors as usual.
	for _, ei := range fullyResumed {
		assemble(ei)
	}

	// Reset the suite gauges the -progress ticker reads.
	workers := opt.parallelism()
	suiteCellsTotal.Set(int64(len(jobs)))
	suiteCellsDone.Set(0)
	suiteQueueDepth.Set(int64(len(jobs)))
	suiteWorkers.Set(int64(workers))
	suiteWorkersBusy.Set(0)

	queue := make(chan job, len(jobs))
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	var busy int64 // nanoseconds, atomic
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				st := states[j.ei]
				st.startOnce.Do(func() { st.start = time.Now() })
				suiteQueueDepth.Add(-1)
				suiteWorkersBusy.Add(1)
				span := startSpan("cell")
				cellStart := time.Now()
				var row any
				var err error
				if j.wi < 0 {
					if err = ctx.Err(); err == nil {
						st.started.Store(true)
						sub := opt
						sub.Context = ctx
						row, err = runWhole(sub, st.exp)
					}
				} else {
					if err = ctx.Err(); err == nil {
						st.started.Store(true)
						row, err = runCell(ctx, opt, st.exp.Cells, ws[j.wi])
					}
				}
				elapsed := time.Since(cellStart)
				span.End()
				suiteWorkersBusy.Add(-1)
				suiteCellsDone.Add(1)
				if j.wi >= 0 && err == nil && opt.Journal != nil {
					// Journal the finished cell durably, best effort: a
					// failed append costs only this cell's resumability,
					// never the run.
					if codec, ok := st.exp.Cells.(RowCodec); ok {
						if enc, eerr := codec.EncodeRow(row); eerr == nil {
							_ = opt.Journal.Record(st.exp.ID, ws[j.wi].Name, enc)
						}
					}
				}
				atomic.AddInt64(&busy, int64(elapsed))
				wi := max(j.wi, 0)
				st.rows[wi], st.errs[wi] = row, err
				name := ""
				if j.wi >= 0 {
					name = ws[j.wi].Name
				}
				st.stats[wi] = CellStat{Workload: name, Elapsed: elapsed, Failed: err != nil}
				if st.pending.Add(-1) == 0 {
					assemble(j.ei)
				}
			}
		}()
	}
	wg.Wait()

	return SuiteStats{
		Experiments: len(exps),
		Cells:       len(jobs),
		Workers:     workers,
		Wall:        time.Since(begin),
		Busy:        time.Duration(atomic.LoadInt64(&busy)),
	}
}
