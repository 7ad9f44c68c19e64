// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 2 and Section 5). Each experiment is registered
// under the paper's table/figure id (table51, fig2, fig5, fig6, fig7a,
// fig7b, table52, fig9, fig10) plus this repository's ablations, and
// prints rows/series in the paper's layout so results can be compared
// side by side (see EXPERIMENTS.md).
package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"rarpred/internal/faultsim"
	"rarpred/internal/funcsim"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// Options parameterises an experiment run.
type Options struct {
	// Size is the workload size parameter (0 selects each experiment's
	// default: workload.ReferenceSize for accuracy studies,
	// workload.TimingSize for the cycle-level studies).
	Size int

	// Workloads restricts the suite (nil = all 18 analogs).
	Workloads []workload.Workload

	// MaxInsts bounds each functional run as a safety net (0 = default).
	MaxInsts uint64

	// Parallelism bounds concurrent workload simulations (0 = GOMAXPROCS).
	Parallelism int

	// Live forces the functional experiments onto the pre-cache path:
	// each experiment assembles its workloads fresh and re-simulates them
	// with the baseline Step interpreter over paged memory, instead of
	// replaying the shared memory-trace cache. The results are identical
	// either way (both paths commit the exact same stream); Live exists so
	// the equivalence can be asserted and the pipeline's speedup measured
	// against the costs it removed.
	Live bool

	// Context cancels the whole run: simulators poll it every
	// funcsim.InterruptEvery committed instructions and the runner
	// aborts (hard error, no partial result) once it is done. nil means
	// context.Background().
	Context context.Context

	// WorkloadTimeout bounds each workload's simulation inside an
	// experiment. An exceeded deadline fails only that workload — it is
	// collected as a runerr.ErrDeadline failure while the rest of the
	// suite completes (0 = no per-workload bound).
	WorkloadTimeout time.Duration

	// Journal, when non-nil, makes the suite run resumable: RunSuite
	// consults it before scheduling each (experiment × workload) cell —
	// a journaled cell's row is decoded and delivered without
	// re-simulation — and records each successfully completed cell's
	// encoded row as it retires. The implementation lives in
	// internal/store; this seam keeps experiments free of the
	// persistence layer.
	Journal SuiteJournal

	// Check arms the run's differential oracle: the first time each
	// cached reference stream is served, it is re-recorded live on the
	// independent baseline interpreter and the two streams compared
	// event by event (trace.DiffStreams). A divergence fails the
	// workload with the first differing event. The cloak/pipeline
	// invariant sweeps are armed separately via their packages'
	// SetSelfCheck (cmd/rarsim -check does both).
	Check bool

	// sims shares timing Results among the cells of one run: RunSuite
	// and runCells each install a fresh memo (see simMemo).
	sims *simMemo
}

func (o Options) workloads() []workload.Workload {
	if o.Workloads != nil {
		return o.Workloads
	}
	return workload.All()
}

func (o Options) size(def int) int {
	if o.Size > 0 {
		return o.Size
	}
	return def
}

func (o Options) maxInsts() uint64 {
	if o.MaxInsts > 0 {
		return o.MaxInsts
	}
	return 2_000_000_000
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Result is what every experiment produces: a rendered, paper-layout
// report. Concrete result types expose the underlying numbers.
type Result interface{ fmt.Stringer }

// PartialResult wraps an experiment's Result when one or more workloads
// failed: the embedded Result covers the survivors and Fails carries one
// typed error per failed workload (each a runerr.WorkloadError stamped
// with the experiment id). String renders the underlying report followed
// by the failure annotations, so partial output is never mistaken for a
// complete run.
type PartialResult struct {
	Result
	Fails []*runerr.WorkloadError
}

// Failures returns the per-workload errors behind the annotations.
func (p *PartialResult) Failures() []*runerr.WorkloadError { return p.Fails }

// String renders the survivors' report plus one annotation per failure.
func (p *PartialResult) String() string {
	var sb strings.Builder
	sb.WriteString(p.Result.String())
	fmt.Fprintf(&sb, "!! partial result: %d workload(s) failed\n", len(p.Fails))
	for _, f := range p.Fails {
		msg := f.Error()
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i] + " ..." // keep panic stacks out of the report
		}
		fmt.Fprintf(&sb, "!!   %s\n", msg)
	}
	return sb.String()
}

// annotate wraps res as partial when any workload failed.
func annotate(res Result, fails []*runerr.WorkloadError) Result {
	if len(fails) == 0 {
		return res
	}
	return &PartialResult{Result: res, Fails: fails}
}

// Experiment is one runnable reproduction of a paper table or figure.
type Experiment struct {
	// ID is the paper's identifier (e.g. "fig6") or an ablation id.
	ID string
	// Title describes what the paper reports there.
	Title string
	// Run executes the experiment standalone (derived from Cells at
	// registration when nil: a private workload pool plus Assemble).
	Run func(Options) (Result, error)
	// Cells decomposes the experiment into independent per-workload
	// units, letting the suite scheduler pool them with every other
	// experiment's cells (see RunSuite).
	Cells CellRunner
}

var registry []Experiment

// register adds e to the registry. A nil Run is derived from Cells, and
// Run is wrapped so every error leaving the experiment layer is
// attributed: hard errors gain the experiment id prefix and
// per-workload failures in a PartialResult are stamped with it
// (completing the runerr.WorkloadError taxonomy).
func register(e Experiment) {
	if e.Run == nil && e.Cells != nil {
		r := e.Cells
		e.Run = func(opt Options) (Result, error) { return runCells(opt, r) }
	}
	id, run := e.ID, e.Run
	e.Run = func(opt Options) (Result, error) {
		res, err := run(opt)
		return stamp(id, res, err)
	}
	registry = append(registry, e)
}

// stamp attributes an experiment's outcome to its id: hard errors gain
// the id prefix, per-workload failures inside a PartialResult are
// stamped with it. Both the standalone Run wrapper and the suite
// scheduler funnel through here, so attribution is identical on either
// path.
func stamp(id string, res Result, err error) (Result, error) {
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	if p, ok := res.(*PartialResult); ok {
		for _, f := range p.Fails {
			if f.Experiment == "" {
				f.Experiment = id
			}
		}
	}
	return res, nil
}

// All returns the experiments in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// CellRunner decomposes an experiment into independent per-workload
// cells plus an assembly step. It is the contract the suite scheduler
// pools work through: one (experiment × workload) cell is the unit of
// scheduling, and Assemble turns the surviving cells back into the
// experiment's paper-layout Result. Cell must be safe to call for
// different workloads concurrently.
type CellRunner interface {
	// Cell runs the experiment's unit of work for one workload under
	// ctx (the run context plus any per-workload deadline).
	Cell(ctx context.Context, opt Options, w workload.Workload) (any, error)
	// Assemble combines the surviving cells (suite order, index-aligned
	// with ws) and the per-workload failures into the Result.
	Assemble(opt Options, ws []workload.Workload, rows []any, fails []*runerr.WorkloadError) (Result, error)
}

// SuiteJournal is the resume seam between the suite scheduler and the
// durable run journal. Lookup returns the encoded row a previous run
// journaled for one cell; Record durably appends a cell that just
// completed. Both must be safe for concurrent use. Only successful
// cells are journaled — failures re-run on resume, because a failure
// may have been environmental (deadline, fault) and deserves a fresh
// attempt.
type SuiteJournal interface {
	Lookup(exp, workload string) ([]byte, bool)
	// Record appends one completed cell's encoded row.
	Record(exp, workload string, row []byte) error
}

// RowCodec is implemented by cell runners whose rows can round-trip
// through the suite run journal. The typed cellRunner implements it
// with gob over the concrete row type, so every experiment built from
// cells/tracedCells/timingCells journals for free; a runner without the
// interface simply is not journaled (its cells re-run on resume).
type RowCodec interface {
	// EncodeRow serializes one cell's row (as returned by Cell).
	EncodeRow(row any) ([]byte, error)
	// DecodeRow reverses EncodeRow into the concrete row type Assemble
	// expects.
	DecodeRow(data []byte) (any, error)
}

// cellRunner adapts a typed per-workload function and assembler to the
// boxed CellRunner contract.
type cellRunner[T any] struct {
	cell     func(ctx context.Context, opt Options, w workload.Workload) (T, error)
	assemble func(opt Options, ws []workload.Workload, rows []T, fails []*runerr.WorkloadError) (Result, error)
}

func (r cellRunner[T]) Cell(ctx context.Context, opt Options, w workload.Workload) (any, error) {
	return r.cell(ctx, opt, w)
}

func (r cellRunner[T]) Assemble(opt Options, ws []workload.Workload, rows []any, fails []*runerr.WorkloadError) (Result, error) {
	typed := make([]T, len(rows))
	for i, row := range rows {
		typed[i] = row.(T)
	}
	return r.assemble(opt, ws, typed, fails)
}

// EncodeRow implements RowCodec: gob over the concrete row type. Row
// types are plain structs of exported fields (plus an embedded
// workload.Workload, whose unexported build function gob skips and the
// workload registry rehydrates), so gob needs no registration.
func (r cellRunner[T]) EncodeRow(row any) ([]byte, error) {
	t, ok := row.(T)
	if !ok {
		return nil, fmt.Errorf("journal: row is %T, want %T", row, *new(T))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&t); err != nil {
		return nil, fmt.Errorf("journal: encoding row: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeRow implements RowCodec.
func (r cellRunner[T]) DecodeRow(data []byte) (any, error) {
	var t T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&t); err != nil {
		return nil, fmt.Errorf("journal: decoding row: %w", err)
	}
	return t, nil
}

// cells builds a CellRunner from a typed per-workload function and
// assembler.
func cells[T any](
	cell func(ctx context.Context, opt Options, w workload.Workload) (T, error),
	assemble func(opt Options, ws []workload.Workload, rows []T, fails []*runerr.WorkloadError) (Result, error),
) CellRunner {
	return cellRunner[T]{cell: cell, assemble: assemble}
}

// tracedCells builds a CellRunner for experiments that only consume the
// committed memory reference stream (all the non-timing experiments;
// the Section 5.6 cycle-level studies need full register-state
// simulation, so their cells call runTimingConfigs). fn receives the
// workload and its recorded stream, obtained from the shared cache —
// recorded on first use, replayed thereafter. opt.Live bypasses the
// cache and re-records.
func tracedCells[T any](
	defSize int,
	fn func(opt Options, w workload.Workload, tr *trace.Stream) (T, error),
	assemble func(opt Options, ws []workload.Workload, rows []T, fails []*runerr.WorkloadError) (Result, error),
) CellRunner {
	return cells(func(ctx context.Context, opt Options, w workload.Workload) (T, error) {
		var zero T
		tr, err := workloadStream(ctx, opt, w, opt.size(defSize), opt.maxInsts())
		if err != nil {
			return zero, err
		}
		defer startSpan("cell/replay").End()
		return fn(opt, w, tr)
	}, assemble)
}

// runCell executes one (experiment × workload) cell under the shared
// isolation policy: a panic is recovered into a typed
// runerr.ErrWorkloadPanic, and Options.WorkloadTimeout bounds the cell
// with its own deadline. Both the standalone per-experiment pool
// (runCells) and the suite scheduler (RunSuite) execute cells through
// this wrapper, so a cell fails the same way on either path. An
// exceeded per-workload deadline is annotated with elapsed-vs-configured
// time ("deadline exceeded (12.3s > 10s)") so the suite's !! lines
// distinguish a near-miss from a hard hang; the parent run's own
// deadline ending takes the plain path, because that bound was not this
// cell's.
func runCell(ctx context.Context, opt Options, r CellRunner, w workload.Workload) (row any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = runerr.FromPanic(w.Name, p, debug.Stack())
		}
	}()
	wctx := ctx
	if opt.WorkloadTimeout > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, opt.WorkloadTimeout)
		defer cancel()
		start := time.Now()
		defer func() {
			if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				err = fmt.Errorf("%w (%.1fs > %s): %w",
					runerr.ErrDeadline, time.Since(start).Seconds(), opt.WorkloadTimeout, err)
			}
		}()
	}
	return r.Cell(wctx, opt, w)
}

// collectCells splits per-cell outcomes into surviving rows (suite
// order, index-aligned with their workloads) and typed failures.
// Failures are collected instead of aborting on the first, so the suite
// always produces every row it can. The error return is reserved for
// every workload failing — with no survivors there is nothing to
// render.
func collectCells(ws []workload.Workload, rows []any, errs []error) ([]any, []workload.Workload, []*runerr.WorkloadError, error) {
	var (
		outRows []any
		outWs   []workload.Workload
		fails   []*runerr.WorkloadError
	)
	for i, w := range ws {
		if errs[i] == nil {
			outRows = append(outRows, rows[i])
			outWs = append(outWs, w)
			continue
		}
		fails = append(fails, runerr.New(w.Name, runerr.Classify(errs[i])))
	}
	if len(outRows) == 0 && len(fails) > 0 {
		joined := make([]error, len(fails))
		for i, f := range fails {
			joined[i] = f
		}
		return nil, nil, nil, fmt.Errorf("every workload failed: %w", errors.Join(joined...))
	}
	return outRows, outWs, fails, nil
}

// runCells is the standalone executor behind every Experiment.Run: the
// runner's cells execute once per workload over a private bounded pool,
// with runCell's isolation, and the survivors are assembled into the
// Result. The call is one run: its cells share a fresh simMemo. The
// error return is reserved for hard aborts: the run context ending, or
// every workload failing.
func runCells(opt Options, r CellRunner) (Result, error) {
	opt.sims = newSimMemo()
	ctx := opt.ctx()
	ws := opt.workloads()
	rows := make([]any, len(ws))
	errs := make([]error, len(ws))
	sem := make(chan struct{}, opt.parallelism())
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w workload.Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], errs[i] = runCell(ctx, opt, r, w)
		}(i, w)
	}
	wg.Wait()

	// The run itself ending is a hard abort, not a per-workload failure:
	// whatever rows completed are moot because the caller is going away.
	if err := ctx.Err(); err != nil {
		return nil, runerr.Classify(err)
	}
	outRows, outWs, fails, err := collectCells(ws, rows, errs)
	if err != nil {
		return nil, err
	}
	return assembleCells(opt, r, outWs, outRows, fails)
}

// assembleCells invokes the experiment's assembler under the same panic
// isolation as its cells: a panicking Assemble fails its experiment
// instead of the process — and, under the suite scheduler, instead of
// the pool worker that happened to retire the last cell (which still
// owns queued cells).
func assembleCells(opt Options, r CellRunner, ws []workload.Workload, rows []any, fails []*runerr.WorkloadError) (res Result, err error) {
	defer startSpan("assemble").End()
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, runerr.FromPanic("assemble", p, debug.Stack())
		}
	}()
	return r.Assemble(opt, ws, rows, fails)
}

// parallelSims runs n independent deterministic simulations of one cell
// concurrently — fig9's five pipeline configurations, say — so a
// multi-variant cell uses as many cores as it has variants instead of
// one. sim(i) must only write state owned by variant i. Each variant
// has its own goroutine, so a variant waiting on another cell's
// in-flight simulation (simMemo) holds up no simulation of its own. A
// panic in any variant is re-raised in the caller's goroutine, keeping
// the per-cell isolation policy intact; errors are reported
// lowest-index first so the outcome is deterministic. The context is
// checked once per simulation before it starts; a running simulation
// polls it through its pipeline.Config.Interrupt hook.
func parallelSims(ctx context.Context, n int, sim func(i int) error) error {
	errs := make([]error, n)
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = p
					}
					panicMu.Unlock()
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = sim(i)
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traceCache is the process-wide store of committed reference streams.
// Every functional experiment in a run (and every run in a process)
// shares it, so `rarsim -exp all` simulates each workload once and
// replays the stream into every analyzer.
var traceCache = trace.NewCache()

// TraceCache exposes the shared stream cache (for its durable tier and
// statistics reporting in cmd/rarsim).
func TraceCache() *trace.Cache { return traceCache }

// workloadStream obtains one workload's committed reference stream under
// the resilience policy. The degradation order on the cached path is:
// shared cache -> (corrupt stream? drop the poisoned entry and re-record
// live with the baseline interpreter) -> error, which the caller records
// as an annotated per-workload failure. Fault-injection hooks
// (faultsim) reach the interpreter through the record closure, so
// injected panics, stalls, and corruption exercise exactly the paths a
// real crash would take.
func workloadStream(ctx context.Context, opt Options, w workload.Workload, size int, maxInsts uint64) (*trace.Stream, error) {
	if opt.Live {
		// The pre-cache harness re-assembled the workload and
		// Step-interpreted it over paged memory for every experiment;
		// model all three costs.
		tr, err := trace.RecordStreamBaselineContext(ctx, w.Assemble(size), maxInsts)
		if err != nil {
			return nil, err
		}
		if tr.Truncated {
			return nil, funcsim.ErrMaxInsts
		}
		return tr, nil
	}

	key := trace.Key{Workload: w.Name, Size: size, MaxInsts: maxInsts}
	record := func() (*trace.Stream, error) {
		defer startSpan("cell/record").End()
		tr, err := trace.RecordStreamContext(ctx, w.Program(size), maxInsts, faultsim.Hook(w.Name, ctx))
		if err == nil && faultsim.Enabled() && faultsim.ShouldCorrupt(w.Name) {
			// One spurious event desynchronises the tally from the
			// execution profile, which Validate below must catch.
			tr.Append(trace.KindLoad, 0, 0, 0)
		}
		return tr, err
	}
	tr, err := traceCache.GetContext(ctx, key, record)
	if err == nil {
		if verr := tr.Validate(); verr != nil {
			// Graceful degradation: never serve a corrupt stream. Drop
			// the poisoned entry so later lookups re-record, and retry
			// live on the independent baseline interpreter before
			// declaring the workload failed.
			traceCache.Drop(key)
			tr, err = trace.RecordStreamBaselineContext(ctx, w.Assemble(size), maxInsts)
			if err == nil {
				err = tr.Validate()
			}
			if err != nil {
				err = fmt.Errorf("%w; live re-record also failed: %w", verr, err)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if tr.Truncated {
		return nil, funcsim.ErrMaxInsts
	}
	if opt.Check {
		if err := verifyStreamOnce(ctx, key, tr, w, size, maxInsts); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// verifyStreamOnce is the replay-vs-live differential oracle: the served
// stream must be event-for-event identical to a fresh recording on the
// baseline Step interpreter (an independent implementation of the same
// semantics — different memory model, no recording fast path).
// verifyOnce runs it once per recording and gives every consumer its
// verdict.
func verifyStreamOnce(ctx context.Context, key trace.Key, tr *trace.Stream, w workload.Workload, size int, maxInsts uint64) error {
	return verifyOnce(ctx, key, tr, func() (diverged, err error) {
		live, err := trace.RecordStreamBaselineContext(ctx, w.Assemble(size), maxInsts)
		if err != nil {
			return nil, fmt.Errorf("check: live re-record for oracle failed: %w", err)
		}
		if err := trace.DiffStreams(tr, live); err != nil {
			return fmt.Errorf("check: replayed stream diverges from live baseline: %w", err), nil
		}
		return nil, nil
	})
}

// verdicts holds the -check oracles' verdict on the recording last
// judged under each cache key (memory and timing recordings differ by
// trace.Key.Timing), so a -check run pays each live shadow once per
// recording rather than once per consuming cell. Each verdict keeps its
// recording reachable until another recording under the same key
// replaces it.
var verdicts = struct {
	sync.Mutex
	m map[trace.Key]*verdict
}{m: make(map[trace.Key]*verdict)}

// verdict is an oracle's judgement of one recording. done closes once
// the check returns; err (the divergence, or nil for a verified
// recording) and undecided (cleared when the check decides) are
// written before that and never after.
type verdict struct {
	rec       any // the *trace.Stream or *trace.IStream judged
	done      chan struct{}
	err       error
	undecided bool
}

// verifyOnce gives every consumer of rec, the recording served under
// key, one verdict from check. The first consumer runs check; concurrent
// consumers wait for its verdict, bounded by their own ctx; later
// consumers reuse it, so a divergence fails every consumer of rec. check
// returns the divergence, or err when it could not decide — say the
// live re-record was canceled — which it reports to its own consumer
// and leaves no verdict: the next consumer checks again, as does each
// waiter, and so does a panic. A recording re-recorded under the same
// key is a different rec and is checked afresh.
func verifyOnce(ctx context.Context, key trace.Key, rec any, check func() (diverged, err error)) error {
	for {
		verdicts.Lock()
		v := verdicts.m[key]
		judge := v == nil || v.rec != rec
		if judge {
			v = &verdict{rec: rec, done: make(chan struct{}), undecided: true}
			verdicts.m[key] = v
		}
		verdicts.Unlock()
		if judge {
			return v.judge(key, check)
		}
		select {
		case <-v.done:
			if !v.undecided {
				return v.err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// judge runs check for v. Unless check returns a verdict, v is removed
// from verdicts before done closes, so waiters check again.
func (v *verdict) judge(key trace.Key, check func() (diverged, err error)) error {
	defer func() {
		if v.undecided {
			verdicts.Lock()
			if verdicts.m[key] == v {
				delete(verdicts.m, key)
			}
			verdicts.Unlock()
		}
		close(v.done)
	}()
	diverged, err := check()
	if err != nil {
		return err
	}
	v.err, v.undecided = diverged, false
	return diverged
}

// meansByClass computes the SPECint, SPECfp and overall arithmetic means
// of a metric extracted from each row.
func meansByClass[T any](ws []workload.Workload, rows []T, metric func(T) float64) (intMean, fpMean, all float64) {
	var si, sf, sa float64
	var ni, nf int
	for i, w := range ws {
		v := metric(rows[i])
		sa += v
		if w.Class == workload.Int {
			si += v
			ni++
		} else {
			sf += v
			nf++
		}
	}
	if ni > 0 {
		intMean = si / float64(ni)
	}
	if nf > 0 {
		fpMean = sf / float64(nf)
	}
	if len(ws) > 0 {
		all = sa / float64(len(ws))
	}
	return
}
