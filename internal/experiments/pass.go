package experiments

import (
	"context"

	"rarpred/internal/cloak"
	"rarpred/internal/locality"
	"rarpred/internal/trace"
	"rarpred/internal/vpred"
	"rarpred/internal/workload"
)

// pass is one replay of a workload's committed reference stream, shared
// by every functional cell of a job. Before the replay, each cell's
// plan registers what it needs on the pass: engines by cloak.Config
// (one engine per distinct config, in one cloak.Bank), per-load
// outcome listeners, and analyzers. After the replay, each plan's
// finish step builds the cell's row from what it registered. A suite
// replays each stream once for all its functional experiments (one job
// per workload, see RunSuite); Experiment.Run's pass holds one plan.
//
// The replay numbers the stream's addresses (trace.AddrIDs), and every
// sink and listener receives address ids in place of addresses: they
// compare addresses only for equality, and the detectors index flat
// arrays by id.
type pass struct {
	w    workload.Workload
	tr   *trace.Stream
	bank *cloak.Bank
	// sinks are the analyzers besides the bank, which is the last sink.
	sinks []trace.Sink
	// windows is the RAR locality sweep over WindowSizes, built on first
	// request; fig2's windows are two of its entries.
	windows *locality.RARLocalitySweep
	// valueLoads receive each load's Section 5.5 pair: the
	// table52Config engine's outcome and whether one last-value
	// predictor was correct.
	valueLoads []func(out cloak.LoadOutcome, vpCorrect bool)
}

func newPass(w workload.Workload, tr *trace.Stream) *pass {
	return &pass{w: w, tr: tr, bank: cloak.NewBank()}
}

// sink adds an analyzer that sees every event, with address ids.
func (p *pass) sink(s trace.Sink) { p.sinks = append(p.sinks, s) }

// windowSweep returns the pass's RAR locality sweep over WindowSizes.
// A sweep's windows are independent of each other, so a consumer that
// needs only some of them reads those entries.
func (p *pass) windowSweep() *locality.RARLocalitySweep {
	if p.windows == nil {
		l := locality.NewRARLocalitySweep(WindowSizes...)
		p.windows = l
		p.sink(trace.SinkFuncs{
			OnLoad:  func(pc, id, _ uint32) { l.Load(pc, id) },
			OnStore: func(pc, id, _ uint32) { l.Store(pc, id) },
		})
	}
	return p.windows
}

// onValueLoad registers fn for every load with the table52Config
// engine's outcome and whether the pass's one last-value predictor
// (vpred.DefaultEntries) predicted the loaded value.
func (p *pass) onValueLoad(fn func(out cloak.LoadOutcome, vpCorrect bool)) {
	if p.valueLoads == nil {
		vp := vpred.NewLastValue(vpred.DefaultEntries)
		p.bank.OnLoad(table52Config(), func(pc, _, value uint32, out cloak.LoadOutcome) {
			_, correct := vp.Access(pc, value)
			for _, fn := range p.valueLoads {
				fn(out, correct)
			}
		})
	}
	p.valueLoads = append(p.valueLoads, fn)
}

// replay feeds the stream once, with address ids, to every analyzer and
// the bank, then counts the loads each engine simulated. A pass nothing
// registered on decodes and numbers nothing.
func (p *pass) replay() {
	sinks := p.sinks
	engines := p.bank.Engines()
	if len(engines) > 0 {
		sinks = append(sinks, p.bank)
	}
	if len(sinks) > 0 {
		p.tr.Replay(trace.NewAddrIDs(sinks...))
	}
	for _, e := range engines {
		countEngineLoads(e)
	}
}

// countEngineLoads adds the loads e simulated to cloak.engine_loads;
// call it once per engine, when its pass ends.
func countEngineLoads(e *cloak.Engine) { engineLoads.Add(e.Stats().Loads) }

// passRunner is the CellRunner of a functional experiment: its cell is
// a plan on a pass of the workload's reference stream.
type passRunner interface {
	CellRunner
	// planCell registers the cell's needs on p and returns the step
	// that builds its row once p has replayed.
	planCell(p *pass) func() any
}

// tracedRunner implements passRunner for a typed row.
type tracedRunner[T any] struct {
	cellRunner[T]
	plan func(p *pass) func() T
}

func (r tracedRunner[T]) planCell(p *pass) func() any {
	finish := r.plan(p)
	return func() any { return finish() }
}

// tracedCells builds the CellRunner of an experiment that only consumes
// the committed memory reference stream (all the non-timing
// experiments; the Section 5.6 cycle-level studies need full
// register-state simulation, so their cells are plans on a timing job,
// see simCells). plan registers the cell's needs on the workload's pass
// and returns the step that builds the row after the replay. The pass
// job obtains the stream at workload.ReferenceSize (obtain: from
// opt.Store, or recorded).
func tracedCells[T any](
	plan func(p *pass) func() T,
	assemble func(ws []workload.Workload, rows []T) Result,
) CellRunner {
	return tracedRunner[T]{cellRunner: cellRunner[T]{assemble: assemble}, plan: plan}
}

// referenceStream looks up w's committed memory stream at the
// functional experiments' size.
func referenceStream(ctx context.Context, opt Options, w workload.Workload) (*trace.Stream, error) {
	return workloadStream(ctx, opt, w, opt.size(workload.ReferenceSize))
}

// passJob is a workload's functional job: one lookup of its reference
// stream, then one pass over it for every cell (runPass).
var passJob = jobKind[passRunner, *trace.Stream]{
	lookup: referenceStream,
	shared: func(_ context.Context, _ Options, w workload.Workload, tr *trace.Stream, rs []passRunner) ([]any, error) {
		return runPass(w, tr, rs), nil
	},
}

// runPass replays tr once for the cells of rs and returns their rows,
// in order.
func runPass(w workload.Workload, tr *trace.Stream, rs []passRunner) []any {
	defer startSpan("cell/replay").End()
	p := newPass(w, tr)
	finish := make([]func() any, len(rs))
	for i, r := range rs {
		finish[i] = r.planCell(p)
	}
	p.replay()
	rows := make([]any, len(rs))
	for i, f := range finish {
		rows[i] = f()
	}
	return rows
}
