package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"rarpred/internal/runerr"
	"rarpred/internal/workload"
)

// SuiteItem is one experiment's completed outcome, delivered to the
// caller in suite (paper) order as soon as it and every experiment
// before it have finished.
type SuiteItem struct {
	// Index is the experiment's position in the suite.
	Index int
	Exp   Experiment
	// Result and Err are the experiment's outcome, as Experiment.Run
	// returns it: Err, attributed to the experiment id, when any cell
	// failed (cellFailures) or the run ended mid-experiment, and the
	// Result otherwise.
	Result Result
	Err    error
	// NotRun reports that the run context ended before any of the
	// experiment's cells started; Err carries the bare context error.
	NotRun bool
	// Elapsed spans the experiment's first cell starting to its result
	// assembling. Under the shared pool experiments overlap, so these
	// durations sum to more than the suite's wall time.
	Elapsed time.Duration
	// Cells holds per-cell timings in workload order.
	Cells []CellStat
}

// Cost sums the experiment's cells' Elapsed: its share of the workers'
// time. Over a suite, the items' costs sum to SuiteStats.Busy.
func (it SuiteItem) Cost() time.Duration {
	var d time.Duration
	for _, c := range it.Cells {
		d += c.Elapsed
	}
	return d
}

// CellStat times one (experiment × workload) cell.
type CellStat struct {
	Workload string
	// Elapsed is the cell's share of its job's time, split evenly over
	// the cells the job covers. Over a suite, the cells' Elapsed sum to
	// SuiteStats.Busy.
	Elapsed time.Duration
	Failed  bool
	// Resumed reports the cell was replayed from the suite run journal
	// (Options.Journal) instead of simulated: a previous interrupted run
	// completed it and journaled its row.
	Resumed bool
	// Fused reports the cell ran in one job with other experiments'
	// cells for the same workload: one pass over its reference stream, or
	// one timing job over its instruction stream (jobKind.runFused).
	Fused bool
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

// RunSuite executes the experiments as one work pool over their
// (experiment × workload) cells: every cell from every experiment feeds
// a single queue drained by Options.parallelism() workers, so a slow
// experiment no longer serialises the suite behind it — its cells
// interleave with everyone else's. Each workload's stream is obtained
// once, by the one job that reads it, no matter how many experiments'
// cells are waiting on it. Experiment.Run is a suite of one.
//
// The unit of work is a job, and there are two kinds. The functional
// experiments' cells for one workload form one job (passJob): one
// stream lookup and one pass that replays the stream into every covered
// experiment's analyzers. The timing experiments' cells for one
// workload form another (simJob): one instruction-stream lookup, then
// each distinct configuration they time simulated once. Both kinds share
// one set of failure rules and one panic isolation (jobKind.runFused).
// The queue holds the jobs in paper order of their first cells:
// experiment by experiment, each over the workloads in suite order.
//
// Results are assembled the moment an experiment's last cell retires and
// delivered in suite order — deliver(item) is called exactly once per
// experiment, ordered, from whichever worker completed the ordering
// gap. An experiment with a failed cell is delivered failed
// (cellFailures); deliver decides whether the suite goes on. deliver
// returning false stops the suite: the remaining cells are drained
// without running and nothing further is delivered.
//
// If the run context ends mid-suite, experiments whose cells never
// started are delivered with NotRun set; experiments caught mid-flight
// get the classified context error as a hard failure, stamped with
// their id.
//
// With Options.Journal set the suite is resumable: cells a previous run
// journaled are prefilled from their decoded rows (CellStat.Resumed)
// and never scheduled — no simulation, no stream lookup, no place in a
// workload's job — and each cell that completes successfully in this
// run is journaled as it retires. Because delivery order, row order,
// and assembly are unchanged, a resumed run's aggregate output is
// byte-identical to an uninterrupted one.
func RunSuite(opt Options, exps []Experiment, deliver func(SuiteItem) bool) SuiteStats {
	begin := time.Now()
	runCtx := opt.ctx()
	// The internal cancel propagates a deliver=false stop to every
	// not-yet-run cell; the run context's own end is observed through it
	// too.
	ctx, cancel := context.WithCancel(runCtx)
	defer cancel()

	ws := opt.workloads()
	states := make([]*suiteExp, len(exps))
	// A job runs one workload's cells of the experiments in eis, in
	// paper order, through run: a workload's pass or timing job.
	type job struct {
		wi  int
		eis []int
		run func(ctx context.Context, opt Options, w workload.Workload, rs []CellRunner) ([]any, []error, int)
	}
	var jobs []*job
	// Each workload's pass and timing jobs, once it has them.
	passJobs, simJobs := make([]*job, len(ws)), make([]*job, len(ws))
	cellsTotal := 0
	var fullyResumed []int // experiments with every cell journaled
	for ei, e := range exps {
		st := &suiteExp{
			exp:   e,
			rows:  make([]any, len(ws)),
			errs:  make([]error, len(ws)),
			stats: make([]CellStat, len(ws)),
		}
		// Prefill cells the journal already holds: the decoded row lands
		// exactly where the worker would have put it, so assembly cannot
		// tell a resumed cell from a fresh one. An undecodable journal row
		// (foreign build's gob layout, say) just re-runs the cell — resume
		// is an optimisation, never a correctness risk.
		resumed := make([]bool, len(ws))
		if opt.Journal != nil {
			for wi, w := range ws {
				enc, hit := opt.Journal.Lookup(e.ID, w.Name)
				if !hit {
					continue
				}
				row, derr := e.Cells.DecodeRow(enc)
				if derr != nil {
					continue
				}
				resumed[wi] = true
				st.rows[wi] = row
				st.stats[wi] = CellStat{Workload: w.Name, Resumed: true}
			}
		}
		run, shared := passJob.runFused, passJobs
		switch e.Cells.(type) {
		case passRunner:
		case simRunner:
			run, shared = simJob.runFused, simJobs
		default:
			panic("experiments: " + e.ID + " has neither pass nor timing cells")
		}
		remaining := 0
		for wi := range ws {
			if resumed[wi] {
				continue
			}
			remaining++
			if shared[wi] != nil {
				shared[wi].eis = append(shared[wi].eis, ei)
				continue
			}
			shared[wi] = &job{wi: wi, eis: []int{ei}, run: run}
			jobs = append(jobs, shared[wi])
		}
		cellsTotal += remaining
		st.pending.Store(int32(remaining))
		if remaining == 0 {
			st.startOnce.Do(func() { st.start = time.Now() })
			fullyResumed = append(fullyResumed, ei)
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
		case runCtx.Err() != nil && !st.started.Load():
			item.NotRun = true
			item.Err = runCtx.Err()
		case runCtx.Err() != nil:
			// Hard abort mid-experiment, stamped with the experiment id.
			item.Err = stamp(st.exp.ID, runerr.Classify(runCtx.Err()))
		default:
			if item.Err = cellFailures(st.exp.ID, ws, st.errs); item.Err == nil {
				item.Result, item.Err = assembleCells(st.exp, ws, st.rows)
			}
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
	suiteCellsTotal.Set(int64(cellsTotal))
	suiteCellsDone.Set(0)

	// retire records one finished cell of experiment ei for workload wi
	// and assembles the experiment once its last cell is in.
	retire := func(ei, wi int, row any, err error, stat CellStat) {
		st := states[ei]
		if err == nil && opt.Journal != nil {
			// Journal the finished cell durably, best effort: a failed
			// append costs only this cell's resumability, never the run.
			if enc, eerr := st.exp.Cells.EncodeRow(row); eerr == nil {
				_ = opt.Journal.Record(st.exp.ID, ws[wi].Name, enc)
			}
		}
		st.rows[wi], st.errs[wi], st.stats[wi] = row, err, stat
		if st.pending.Add(-1) == 0 {
			assemble(ei)
		}
	}

	// run executes job j and returns one row and error per covered cell.
	// It marks the experiments whose cells began as started.
	run := func(j *job) ([]any, []error) {
		n := len(j.eis)
		if err := ctx.Err(); err != nil {
			errs := make([]error, n)
			for k := range errs {
				errs[k] = err
			}
			return make([]any, n), errs
		}
		rs := make([]CellRunner, n)
		for k, ei := range j.eis {
			rs[k] = exps[ei].Cells
		}
		rows, errs, started := j.run(ctx, opt, ws[j.wi], rs)
		for _, ei := range j.eis[:started] {
			states[ei].started.Store(true)
		}
		return rows, errs
	}

	queue := make(chan *job, len(jobs))
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
				n := len(j.eis)
				for _, ei := range j.eis {
					st := states[ei]
					st.startOnce.Do(func() { st.start = time.Now() })
				}
				span := startSpan("cell")
				jobStart := time.Now()
				rows, errs := run(j)
				elapsed := time.Since(jobStart)
				span.End()
				suiteCellsDone.Add(int64(n))
				atomic.AddInt64(&busy, int64(elapsed))
				// Split the job's time evenly over its cells, the first
				// cells taking the nanoseconds left over, so the cells'
				// times sum to the job's exactly.
				share, rest := elapsed/time.Duration(n), elapsed%time.Duration(n)
				for k, ei := range j.eis {
					stat := CellStat{Workload: ws[j.wi].Name, Elapsed: share, Failed: errs[k] != nil, Fused: n > 1}
					if time.Duration(k) < rest {
						stat.Elapsed++
					}
					retire(ei, j.wi, rows[k], errs[k], stat)
				}
			}
		}()
	}
	wg.Wait()

	return SuiteStats{
		Experiments: len(exps),
		Cells:       cellsTotal,
		Workers:     workers,
		Wall:        time.Since(begin),
		Busy:        time.Duration(atomic.LoadInt64(&busy)),
	}
}

// jobKind is one way a workload's cells share their work: the lookup of
// the source they all read, and the shared step that builds their rows
// (index-aligned with rs) from it. passJob looks up the reference stream
// and replays it once; simJob looks up the instruction stream and
// simulates each distinct configuration once.
type jobKind[R CellRunner, S any] struct {
	lookup func(ctx context.Context, opt Options, w workload.Workload) (S, error)
	shared func(ctx context.Context, opt Options, w workload.Workload, src S, rs []R) ([]any, error)
}

// runFused runs the cells rs (paper order, each an R) of workload w as
// one job: one lookup and one shared step, under isolate's panic
// capture. The job fails as one: a failed lookup, or an error or panic
// in the shared step, fails every cell with that error. The simulation
// is deterministic, so the failure reproduces, and `rarsim -exp <id>
// -bench <w>` runs one cell as a job of its own to attribute it. A job
// the run's end overtook fails with the run context's error, so it
// journals nothing.
//
// started counts the cells whose work began, a prefix of rs: the lookup
// is its first cell's work, and the rest begin with the shared step.
// After a failed lookup only the first cell started.
func (k jobKind[R, S]) runFused(ctx context.Context, opt Options, w workload.Workload, rs []CellRunner) (rows []any, errs []error, started int) {
	typed := make([]R, len(rs))
	for i, r := range rs {
		typed[i] = r.(R)
	}
	started = 1
	err := isolate(w, func() error {
		src, err := k.lookup(ctx, opt, w)
		if err != nil {
			return err
		}
		started = len(rs)
		if rows, err = k.shared(ctx, opt, w, src, typed); err != nil {
			return err
		}
		return ctx.Err()
	})
	errs = make([]error, len(rs))
	if err != nil {
		rows = make([]any, len(rs))
		for i := range errs {
			errs[i] = err
		}
	}
	return rows, errs, started
}
