package experiments

import (
	"context"
	"fmt"
	"sync"

	"rarpred/internal/faultsim"
	"rarpred/internal/funcsim"
	"rarpred/internal/pipeline"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// Timing experiments (fig9, fig10, ablmemspec, ablrecovery) sweep many
// pipeline configurations over each workload. The paper evaluates every
// configuration against one fixed committed instruction stream per
// benchmark, so the harness records that stream once (trace.IStream,
// cached under the shared trace.Cache with Timing keys) and replays it
// into every configuration's pipeline.Sim — the timing sibling of the
// functional experiments' shared memory-trace cache.

// timingRunner is cells plus the timing-stream dependency edge: its
// StreamKey lets the suite scheduler pin the instruction recording until
// every consuming cell has run, exactly like tracedRunner does for
// memory streams.
type timingRunner[T any] struct {
	cellRunner[T]
}

func (r timingRunner[T]) StreamKey(opt Options, w workload.Workload) (trace.Key, bool) {
	if opt.Live {
		return trace.Key{}, false
	}
	return trace.Key{
		Workload: w.Name,
		Size:     opt.size(workload.TimingSize),
		MaxInsts: opt.maxInsts(),
		Timing:   true,
	}, true
}

// timingCellsOf builds a CellRunner for a timing experiment whose cells
// replay the shared instruction recording (see runTimingConfigs).
func timingCellsOf[T any](
	cell func(ctx context.Context, opt Options, w workload.Workload) (T, error),
	assemble func(opt Options, ws []workload.Workload, rows []T, fails []*runerr.WorkloadError) (Result, error),
) CellRunner {
	return timingRunner[T]{cellRunner[T]{cell: cell, assemble: assemble}}
}

// runTimingConfigs runs one workload under every configuration
// concurrently (parallelSims). On the cached path the committed
// instruction stream is recorded once and each configuration replays it;
// Options.Live forces every configuration onto the pre-trace path — a
// full live interpreter per pipeline.Sim — so the replay's speedup can
// be measured against the costs it removed. wrap attributes
// configuration i's error the way the calling experiment labels its
// variants.
func runTimingConfigs(ctx context.Context, opt Options, w workload.Workload, size int,
	cfgs []pipeline.Config, wrap func(i int, err error) error) ([]pipeline.Result, error) {
	results := make([]pipeline.Result, len(cfgs))
	if opt.Live {
		err := parallelSims(ctx, len(cfgs), func(i int) error {
			cfg := cfgs[i]
			cfg.Interrupt = interruptHook(ctx)
			res, err := pipeline.RunProgram(w.Program(size), cfg)
			results[i] = res
			if err != nil {
				return wrap(i, err)
			}
			return nil
		})
		return results, err
	}
	is, err := workloadIStream(ctx, opt, w, size, opt.maxInsts())
	if err != nil {
		return nil, err
	}
	prog := w.Program(size)
	err = parallelSims(ctx, len(cfgs), func(i int) error {
		defer startSpan("cell/replay").End()
		cfg := cfgs[i]
		cfg.Interrupt = interruptHook(ctx)
		res, err := pipeline.NewReplay(prog, is, cfg).Run()
		results[i] = res
		if err != nil {
			return wrap(i, err)
		}
		return nil
	})
	return results, err
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
// under the same resilience policy as workloadStream: shared cache ->
// (corrupt recording? drop the poisoned entry and re-record on the
// baseline interpreter) -> error. Fault-injection hooks reach the
// recording loop through the record closure.
func workloadIStream(ctx context.Context, opt Options, w workload.Workload, size int, maxInsts uint64) (*trace.IStream, error) {
	key := trace.Key{Workload: w.Name, Size: size, MaxInsts: maxInsts, Timing: true}
	record := func() (*trace.IStream, error) {
		defer startSpan("cell/record").End()
		is, err := trace.RecordIStreamContext(ctx, w.Program(size), maxInsts, faultsim.Hook(w.Name, ctx))
		if err == nil && faultsim.Enabled() && faultsim.ShouldCorrupt(w.Name) {
			// One spurious memory record desynchronises the tally from the
			// execution profile, which Validate below must catch.
			is.AppendMem(0, 0)
		}
		return is, err
	}
	is, err := traceCache.GetIStreamContext(ctx, key, record)
	if err == nil {
		if verr := is.Validate(); verr != nil {
			// Graceful degradation: never replay a corrupt recording. Drop
			// the poisoned entry so later lookups re-record, and retry on
			// the independent baseline interpreter before declaring the
			// workload failed.
			traceCache.Drop(key)
			is, err = trace.RecordIStreamBaselineContext(ctx, w.Assemble(size), maxInsts)
			if err == nil {
				err = is.Validate()
			}
			if err != nil {
				err = fmt.Errorf("%w; live re-record also failed: %w", verr, err)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if is.Truncated {
		return nil, funcsim.ErrMaxInsts
	}
	if opt.Check {
		if err := verifyIStreamOnce(key, is, w, size); err != nil {
			return nil, err
		}
	}
	return is, nil
}

// istreamVerified tracks which timing recordings the differential oracle
// has already shadowed, so a -check run pays the live pipeline run once
// per cache key rather than once per consuming cell.
var istreamVerified sync.Map // trace.Key -> struct{}

// verifyIStreamOnce is the replay-vs-live pipeline oracle: a timing
// simulation fed from the recorded stream must produce a Result
// identical to one driven by the live functional interpreter (the feed
// is the only difference between the two simulations, so any divergence
// means the recording or the replay path is broken). The first caller
// per key performs the comparison; concurrent callers may race to verify
// the same key once each, which is only redundant work.
func verifyIStreamOnce(key trace.Key, is *trace.IStream, w workload.Workload, size int) error {
	if _, done := istreamVerified.LoadOrStore(key, struct{}{}); done {
		return nil
	}
	prog := w.Program(size)
	cfg := pipeline.DefaultConfig()
	live, err := pipeline.RunProgram(prog, cfg)
	if err != nil {
		istreamVerified.Delete(key) // transient; let a retry re-verify
		return fmt.Errorf("check: live pipeline shadow failed: %w", err)
	}
	replay, err := pipeline.NewReplay(prog, is, cfg).Run()
	if err != nil {
		istreamVerified.Delete(key)
		return fmt.Errorf("check: replayed pipeline shadow failed: %w", err)
	}
	if replay != live {
		return fmt.Errorf("check: replayed timing run diverges from live pipeline: got %+v, want %+v", replay, live)
	}
	return nil
}
