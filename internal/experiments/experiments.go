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

	// Live forces the experiments onto the pre-cache path, instead of
	// replaying the shared trace cache: a functional job assembles its
	// workload fresh and re-records its stream with the baseline Step
	// interpreter over paged memory, and a timing job runs a full live
	// interpreter per configuration (pipeline.RunProgram). Live changes
	// only how a job gets its recording, not which cells share a job.
	// The results are identical either way (both paths commit the exact
	// same stream); Live exists so the equivalence can be asserted and
	// the cache's speedup measured against the costs it removed.
	Live bool

	// Context cancels the whole run: simulators poll it every
	// funcsim.InterruptEvery committed instructions and the runner
	// aborts (hard error, no partial result) once it is done. nil means
	// context.Background().
	Context context.Context

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
	// Cells decomposes the experiment into per-workload cells: a pass
	// runner (tracedCells) or a timing runner (simCells), the two job
	// kinds RunSuite pools with every other experiment's cells.
	Cells CellRunner
}

// Run executes the experiment alone: a suite of one (RunSuite), whose
// jobs each hold only this experiment's cell, so it shares no work with
// any other experiment. It never journals: opt.Journal is ignored. Every
// error leaving the experiment layer is attributed: hard errors gain
// the experiment id prefix (a run the context ended before any cell
// began included) and per-workload failures in a PartialResult are
// stamped with it (completing the runerr.WorkloadError taxonomy).
func (e Experiment) Run(opt Options) (Result, error) {
	opt.Journal = nil
	var item SuiteItem
	RunSuite(opt, []Experiment{e}, func(it SuiteItem) bool { item = it; return true })
	if item.NotRun {
		return stamp(e.ID, nil, runerr.Classify(item.Err))
	}
	return item.Result, item.Err
}

var registry []Experiment

// register adds e to the registry. Its Cells must be a pass runner or a
// timing runner: RunSuite has no other job kind.
func register(e Experiment) {
	switch e.Cells.(type) {
	case passRunner, simRunner:
	default:
		panic("experiments: " + e.ID + " registered without pass or timing cells")
	}
	registry = append(registry, e)
}

// stamp attributes an experiment's outcome to its id: hard errors gain
// the id prefix, per-workload failures inside a PartialResult are
// stamped with it. A failure is stamped on a copy, because a fused job
// hands one error to the cells of every experiment it covers.
func stamp(id string, res Result, err error) (Result, error) {
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	if p, ok := res.(*PartialResult); ok {
		for i, f := range p.Fails {
			if f.Experiment == "" {
				stamped := *f
				stamped.Experiment = id
				p.Fails[i] = &stamped
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

// CellRunner decomposes an experiment into per-workload cells plus an
// assembly step. It is the contract the suite scheduler pools work
// through: one (experiment × workload) cell is the unit of results,
// failures and journaling (the scheduler runs a workload's functional
// cells as one job and its timing cells as another, see
// jobKind.runFused), and Assemble turns the surviving cells back into
// the experiment's paper-layout Result. Every runner is a passRunner or
// a simRunner, built from a typed cellRunner.
type CellRunner interface {
	// Assemble combines the surviving cells (suite order, index-aligned
	// with ws) and the per-workload failures into the Result.
	Assemble(opt Options, ws []workload.Workload, rows []any, fails []*runerr.WorkloadError) (Result, error)
	// EncodeRow serializes one cell's row for the suite run journal.
	EncodeRow(row any) ([]byte, error)
	// DecodeRow reverses EncodeRow into the concrete row type Assemble
	// expects.
	DecodeRow(data []byte) (any, error)
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

// cellRunner implements the typed half of CellRunner: the assembler and
// the journal codec over the concrete row type T.
type cellRunner[T any] struct {
	assemble func(opt Options, ws []workload.Workload, rows []T, fails []*runerr.WorkloadError) (Result, error)
}

func (r cellRunner[T]) Assemble(opt Options, ws []workload.Workload, rows []any, fails []*runerr.WorkloadError) (Result, error) {
	typed := make([]T, len(rows))
	for i, row := range rows {
		typed[i] = row.(T)
	}
	return r.assemble(opt, ws, typed, fails)
}

// EncodeRow implements CellRunner: gob over the concrete row type. Row
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

// DecodeRow implements CellRunner.
func (r cellRunner[T]) DecodeRow(data []byte) (any, error) {
	var t T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&t); err != nil {
		return nil, fmt.Errorf("journal: decoding row: %w", err)
	}
	return t, nil
}

// isolate runs fn, the work of one or more cells of workload w, and
// recovers a panic into a typed runerr.ErrWorkloadPanic. Every job runs
// under it (jobKind.runFused).
func isolate(w workload.Workload, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = runerr.FromPanic(w.Name, p, debug.Stack())
		}
	}()
	return fn()
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

// assembleCells invokes the experiment's assembler under the same panic
// isolation as its cells: a panicking Assemble fails its experiment
// instead of the pool worker that happened to retire the last cell
// (which still owns queued jobs), and so instead of the process.
func assembleCells(opt Options, r CellRunner, ws []workload.Workload, rows []any, fails []*runerr.WorkloadError) (res Result, err error) {
	defer startSpan("assemble").End()
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, runerr.FromPanic("assemble", p, debug.Stack())
		}
	}()
	return r.Assemble(opt, ws, rows, fails)
}

// traceCache is the process-wide store of committed reference streams.
// Every functional experiment in a run (and every run in a process)
// shares it, so `rarsim -exp all` simulates each workload once; the
// suite's one pass per workload then replays that stream into every
// functional experiment's analyzers (see passJob).
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
