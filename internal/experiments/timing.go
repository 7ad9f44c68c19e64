package experiments

import (
	"context"
	"fmt"

	"rarpred/internal/cloak"
	"rarpred/internal/pipeline"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// Timing experiments (fig9, fig10, ablmemspec, ablrecovery) sweep many
// pipeline configurations over each workload. The paper evaluates every
// configuration against one fixed committed instruction stream per
// benchmark, so the harness records that stream once per timing job
// (trace.IStream, under a Timing key) and replays it into every
// configuration's pipeline.Sim — the timing sibling of the functional
// experiments' pass over the memory stream. A timing cell is a plan on
// its workload's timing job (simJob): it declares the specs it times,
// and the job simulates each distinct spec once for every cell it
// covers, all of them in one walk of the stream.

// simSpec describes one timing configuration of Section 5.6: the base
// processor under a memory-dependence speculation policy, optionally
// with cloaking/bypassing in one mode and one value-misspeculation
// recovery policy. Every timing experiment builds its pipeline.Configs
// from simSpecs, so two equal specs always mean the same whole Config
// and a spec is the comparable form a timing job dedups on.
type simSpec struct {
	memSpec  pipeline.MemSpecPolicy
	cloaked  bool
	mode     cloak.Mode              // zero unless cloaked
	recovery pipeline.RecoveryPolicy // zero unless cloaked
}

// baseSpec is the base processor (no cloaking) under policy pol.
func baseSpec(pol pipeline.MemSpecPolicy) simSpec { return simSpec{memSpec: pol} }

// cloakSpec is the base processor under pol plus cloaking/bypassing in
// mode, recovering from wrong values with rec.
func cloakSpec(mode cloak.Mode, rec pipeline.RecoveryPolicy, pol pipeline.MemSpecPolicy) simSpec {
	return simSpec{memSpec: pol, cloaked: true, mode: mode, recovery: rec}
}

// config builds the spec's pipeline configuration: the Section 5.1 base
// processor, plus Section 5.6.1's cloaking tables and bypassing when
// cloaked.
func (s simSpec) config() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.MemSpec = s.memSpec
	if s.cloaked {
		cc := cloak.TimingConfig(s.mode)
		cfg.Cloak = &cc
		cfg.Bypassing = true
		cfg.Recovery = s.recovery
	}
	return cfg
}

// simRunner is the CellRunner of a timing experiment: its cell is a plan
// on its workload's timing job.
type simRunner interface {
	CellRunner
	// sims returns the specs the cell times, the same on every workload.
	sims() []simSpec
	// simRow builds the cell's row from its specs' Results, index-aligned
	// with sims.
	simRow(w workload.Workload, res []pipeline.Result) any
	// simErr labels spec s's failure the way the experiment names its
	// variants.
	simErr(w workload.Workload, s simSpec, err error) error
}

// simCellRunner implements simRunner for a typed row.
type simCellRunner[T any] struct {
	cellRunner[T]
	specs []simSpec
	label func(w workload.Workload, s simSpec, err error) error
	row   func(w workload.Workload, res []pipeline.Result) T
}

func (r simCellRunner[T]) sims() []simSpec { return r.specs }

func (r simCellRunner[T]) simRow(w workload.Workload, res []pipeline.Result) any {
	return r.row(w, res)
}

func (r simCellRunner[T]) simErr(w workload.Workload, s simSpec, err error) error {
	if r.label == nil {
		return err
	}
	return r.label(w, s, err)
}

// simCells builds the CellRunner of a timing experiment. Its cell times
// specs on the workload's timing job, and row builds the cell's row from
// their Results. label attributes a spec's error the way the experiment
// names its variants; nil leaves errors as they are.
func simCells[T any](
	specs []simSpec,
	label func(w workload.Workload, s simSpec, err error) error,
	row func(w workload.Workload, res []pipeline.Result) T,
	assemble func(ws []workload.Workload, rows []T) Result,
) CellRunner {
	return simCellRunner[T]{cellRunner: cellRunner[T]{assemble: assemble}, specs: specs, label: label, row: row}
}

// simJob is a workload's timing job: one lookup of its committed
// instruction stream, then each distinct spec its cells time simulated
// once, all in one walk of the stream (runSims).
var simJob = jobKind[simRunner, *trace.IStream]{lookup: timingStream, shared: runSims}

// timingStream looks up w's committed instruction stream at the timing
// experiments' size.
func timingStream(ctx context.Context, opt Options, w workload.Workload) (*trace.IStream, error) {
	return workloadIStream(ctx, opt, w, opt.size(workload.TimingSize))
}

// runSims simulates each distinct spec the cells rs time once and builds
// every cell's row from its own specs' Results.
//
// A cloak engine sees only the committed loads' and stores' (pc,
// address, value) in program order, and so do the caches, the branch
// predictor and the store-address search, so what they decide depends
// only on the stream and, for an engine, its config. runSims therefore
// times every spec in one walk of is (pipeline.Walk): each step decodes
// the next stretch of the stream once, runs one engine per distinct
// cloak config (RAW's and RAW+RAR's for the four timing experiments) and
// one machine over it, and times all the specs' Sims over it, at most
// opt.parallelism() at a time. Each walked Result equals the one a live
// interpreter with its own engine and machine gives the spec
// (pipeline.RunProgram), the oracle -check (verifyIStream) and the tests
// hold the walk to.
//
// A failed simulation fails the job with the error as labelled by the
// first cell, in rs order, that times the spec; the first failed spec in
// first-request order reports, so a job of one cell fails exactly as
// that cell names it.
func runSims(ctx context.Context, opt Options, w workload.Workload, is *trace.IStream, rs []simRunner) ([]any, error) {
	var (
		specs  []simSpec
		askers []simRunner // the first cell to time each spec
	)
	index := make(map[simSpec]int)
	for _, r := range rs {
		for _, s := range r.sims() {
			if _, seen := index[s]; !seen {
				index[s] = len(specs)
				specs = append(specs, s)
				askers = append(askers, r)
			}
		}
	}
	prog := w.Assemble(opt.size(workload.TimingSize))
	sims := make([]*pipeline.Sim, len(specs))
	for j, s := range specs {
		cfg := s.config()
		cfg.Interrupt = interruptHook(ctx)
		sims[j] = pipeline.NewReplay(prog, is, cfg)
	}
	span := startSpan("cell/replay")
	results, errs := pipeline.Walk(sims, opt.parallelism())
	span.End()
	for j, err := range errs {
		if err != nil {
			return nil, askers[j].simErr(w, specs[j], err)
		}
	}
	rows := make([]any, len(rs))
	for k, r := range rs {
		own := r.sims()
		res := make([]pipeline.Result, len(own))
		for i, s := range own {
			res[i] = results[index[s]]
		}
		rows[k] = r.simRow(w, res)
	}
	return rows, nil
}

// interruptHook builds the pipeline Config.Interrupt seam from the run
// context: the hook surfaces cancellation at the pipeline's
// InterruptEvery commit boundary. nil (no per-instruction cost) when
// ctx can never be canceled.
func interruptHook(ctx context.Context) func() error {
	if ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

// workloadIStream obtains one workload's committed instruction stream
// (obtain), the same way workloadStream obtains its memory stream.
func workloadIStream(ctx context.Context, opt Options, w workload.Workload, size int) (*trace.IStream, error) {
	return obtain(opt, trace.Key{Workload: w.Name, Size: size, MaxInsts: maxInsts, Timing: true}, recorder[*trace.IStream]{
		record: func() (*trace.IStream, error) {
			defer startSpan("cell/record").End()
			return trace.RecordIStreamContext(ctx, w.Assemble(size), maxInsts)
		},
		truncated: func(is *trace.IStream) bool { return is.Truncated },
		verify: func(is *trace.IStream) error {
			return verifyIStream(ctx, is, w, size)
		},
	})
}

// verifyIStream is the replay-vs-live pipeline oracle: a timing
// simulation fed from the recorded stream must produce a Result
// identical to one driven by the live functional interpreter (the feed
// is the only difference between the two simulations, so any divergence
// means the recording or the replay path is broken). It times the base
// processor and one cloaked spec (RAW+RAR, selective, naive
// speculation), so the walk's decision column is checked against the
// live feed's inline engine on every workload it records too.
func verifyIStream(ctx context.Context, is *trace.IStream, w workload.Workload, size int) error {
	prog := w.Assemble(size)
	for _, spec := range []simSpec{
		baseSpec(pipeline.NaiveSpec),
		cloakSpec(cloak.ModeRAWRAR, pipeline.Selective, pipeline.NaiveSpec),
	} {
		cfg := spec.config()
		cfg.Interrupt = interruptHook(ctx)
		live, err := pipeline.RunProgram(prog, cfg)
		if err != nil {
			return fmt.Errorf("check: live pipeline shadow failed: %w", err)
		}
		replay, err := pipeline.NewReplay(prog, is, cfg).Run()
		if err != nil {
			return fmt.Errorf("check: replayed pipeline shadow failed: %w", err)
		}
		if replay != live {
			return fmt.Errorf("check: replayed timing run diverges from live pipeline: got %+v, want %+v", replay, live)
		}
	}
	return nil
}
