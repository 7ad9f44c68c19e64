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

	// Parallelism bounds concurrent workload simulations (0 = GOMAXPROCS).
	Parallelism int

	// Store, when non-nil, is the durable home of the jobs' recordings
	// (internal/store implements it): a job loads its recording from
	// Store before recording it, and saves a recording it made once the
	// recording has passed validation (see obtain).
	Store trace.Tier

	// Context cancels the whole run: simulators poll it every
	// funcsim.InterruptEvery committed instructions and the runner
	// aborts with a hard error once it is done. nil means
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

	// Check arms the run's differential oracles: each job verifies the
	// recording it obtains against the independent baseline
	// interpreter — a memory stream event by event
	// (trace.DiffStreams), an instruction stream by timing it against
	// the live pipeline — and a divergence fails the workload with the
	// first difference. The cloak/pipeline invariant sweeps are armed
	// separately via their packages' SetSelfCheck (cmd/rarsim -check
	// does both).
	Check bool
}

func (o Options) workloads() []workload.Workload {
	if o.Workloads != nil {
		return o.Workloads
	}
	return workload.All()
}

// maxInsts bounds every recording, a safety net against a runaway
// program: a recording it cuts short fails its workload (obtain).
const maxInsts = 2_000_000_000

func (o Options) size(def int) int {
	if o.Size > 0 {
		return o.Size
	}
	return def
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
// error leaving the experiment layer is attributed: a failed cell reads
// "<exp>/<workload>: <cause>" (cellFailures), and a hard error gains the
// experiment id prefix (a run the context ended before any cell began
// included).
func (e Experiment) Run(opt Options) (Result, error) {
	opt.Journal = nil
	var item SuiteItem
	RunSuite(opt, []Experiment{e}, func(it SuiteItem) bool { item = it; return true })
	if item.NotRun {
		return nil, stamp(e.ID, runerr.Classify(item.Err))
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

// stamp attributes a hard error to experiment id.
func stamp(id string, err error) error { return fmt.Errorf("%s: %w", id, err) }

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
// jobKind.runFused), and Assemble turns the cells back into the
// experiment's paper-layout Result. Every runner is a passRunner or a
// simRunner, built from a typed cellRunner.
type CellRunner interface {
	// Assemble combines every workload's row (suite order, index-aligned
	// with ws) into the Result. An experiment with a failed cell is
	// never assembled (cellFailures).
	Assemble(ws []workload.Workload, rows []any) Result
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
// cells are journaled, so a resumed run reruns exactly the cells that
// failed or never ran.
type SuiteJournal interface {
	Lookup(exp, workload string) ([]byte, bool)
	// Record appends one completed cell's encoded row.
	Record(exp, workload string, row []byte) error
}

// cellRunner implements the typed half of CellRunner: the assembler and
// the journal codec over the concrete row type T.
type cellRunner[T any] struct {
	assemble func(ws []workload.Workload, rows []T) Result
}

func (r cellRunner[T]) Assemble(ws []workload.Workload, rows []any) Result {
	typed := make([]T, len(rows))
	for i, row := range rows {
		typed[i] = row.(T)
	}
	return r.assemble(ws, typed)
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

// cellFailures is the suite's one failure rule: an experiment with any
// failed cell fails as a whole. Its error joins, in suite order, each
// failed cell's cause attributed as "<id>/<workload>: <cause>"; nil when
// every cell succeeded. The simulation is deterministic, so a failed
// cell would fail the same way again, and rendering the rest would only
// hide the loss. Each attribution is a copy, because a fused job hands
// one error to the cells of every experiment it covers.
func cellFailures(id string, ws []workload.Workload, errs []error) error {
	var fails []error
	for i, err := range errs {
		if err != nil {
			we := *runerr.New(ws[i].Name, runerr.Classify(err))
			we.Experiment = id
			fails = append(fails, &we)
		}
	}
	return errors.Join(fails...)
}

// assembleCells invokes e's assembler under the same panic isolation as
// its cells: a panicking Assemble fails its experiment instead of the
// pool worker that happened to retire the last cell (which still owns
// queued jobs), and so instead of the process.
func assembleCells(e Experiment, ws []workload.Workload, rows []any) (res Result, err error) {
	defer startSpan("assemble").End()
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, stamp(e.ID, runerr.FromPanic("assemble", p, debug.Stack()))
		}
	}()
	return e.Cells.Assemble(ws, rows), nil
}

// recording is what a job obtains: a memory-event trace.Stream or an
// instruction-level trace.IStream.
type recording interface {
	trace.Cached
	Validate() error
}

// recorder says how to obtain one recording, for obtain.
type recorder[S recording] struct {
	// record records it on the fast interpreter.
	record func() (S, error)
	// truncated reports that the recording stopped at the instruction
	// budget.
	truncated func(S) bool
	// verify is the -check oracle (Options.Check).
	verify func(S) error
}

// obtain is the one way a job gets its recording under key, for pass
// jobs (workloadStream) and timing jobs (workloadIStream) alike:
//
//  1. load it from opt.Store if one is set, and otherwise (on a miss, a
//     load error, or a loaded recording that fails validation) record
//     it;
//  2. fail a fresh recording that fails validation, or one cut short by
//     the instruction budget — never serve a corrupt recording;
//  3. under opt.Check, verify it once;
//  4. save it to opt.Store if it was not loaded from there, so only a
//     recording that passed validation is saved. A failed save costs
//     durability, not the run.
//
// The recording belongs to the job that asked for it and becomes
// garbage when the job returns.
func obtain[S recording](opt Options, key trace.Key, r recorder[S]) (S, error) {
	var zero S
	s, loaded := load[S](opt.Store, key)
	if !loaded {
		var err error
		if s, err = r.record(); err != nil {
			return zero, err
		}
		if err := s.Validate(); err != nil {
			return zero, err
		}
	}
	if r.truncated(s) {
		return zero, funcsim.ErrMaxInsts
	}
	if opt.Check {
		if err := r.verify(s); err != nil {
			return zero, err
		}
	}
	if opt.Store != nil && !loaded {
		_ = opt.Store.Store(key, s)
	}
	return s, nil
}

// load returns the recording tier holds under key, if tier is set and
// holds a valid one of type S. A load error, or a recording that fails
// validation, is a miss: the tier has already quarantined or reported
// what it needed to, and recording is the path that always works.
func load[S recording](tier trace.Tier, key trace.Key) (s S, ok bool) {
	if tier == nil {
		return s, false
	}
	v, err := tier.Load(key)
	if err != nil {
		return s, false
	}
	s, ok = v.(S)
	return s, ok && s.Validate() == nil
}

// workloadStream obtains one workload's committed reference stream
// (obtain).
func workloadStream(ctx context.Context, opt Options, w workload.Workload, size int) (*trace.Stream, error) {
	return obtain(opt, trace.Key{Workload: w.Name, Size: size, MaxInsts: maxInsts}, recorder[*trace.Stream]{
		record: func() (*trace.Stream, error) {
			defer startSpan("cell/record").End()
			return trace.RecordStreamContext(ctx, w.Assemble(size), maxInsts)
		},
		truncated: func(tr *trace.Stream) bool { return tr.Truncated },
		verify: func(tr *trace.Stream) error {
			return verifyStream(ctx, tr, w, size)
		},
	})
}

// verifyStream is the replay-vs-live differential oracle: the served
// stream must be event-for-event identical to a fresh recording on the
// baseline Step interpreter (an independent implementation of the same
// semantics — different memory model, no recording fast path).
func verifyStream(ctx context.Context, tr *trace.Stream, w workload.Workload, size int) error {
	live, err := trace.RecordStreamBaselineContext(ctx, w.Assemble(size), maxInsts)
	if err != nil {
		return fmt.Errorf("check: live re-record for oracle failed: %w", err)
	}
	if err := trace.DiffStreams(tr, live); err != nil {
		return fmt.Errorf("check: replayed stream diverges from live baseline: %w", err)
	}
	return nil
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
