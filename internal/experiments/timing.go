package experiments

import (
	"context"
	"fmt"
	"sync"

	"rarpred/internal/cloak"
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
// functional experiments' shared memory-trace cache. The experiments
// also overlap in the configurations they time, so within one run each
// distinct configuration is simulated once per recording (simMemo).

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

// simSpec describes one timing configuration of Section 5.6: the base
// processor under a memory-dependence speculation policy, optionally
// with cloaking/bypassing in one mode and one value-misspeculation
// recovery policy. Every timing experiment builds its pipeline.Configs
// from simSpecs, so two equal specs always mean the same whole Config
// and a spec is the comparable form simMemo keys on.
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

// runTimingConfigs runs one workload under every spec concurrently
// (parallelSims). On the cached path the committed instruction stream is
// recorded once, and each spec's Result comes from the run's simMemo:
// replayed from that recording by the first cell to ask for it, awaited
// or reused by every other. Options.Live forces every spec onto the
// pre-trace path — a full live interpreter per pipeline.Sim, no memo —
// the oracle the replayed and shared Results are tested against. wrap
// attributes spec i's error the way the calling experiment labels its
// variants.
func runTimingConfigs(ctx context.Context, opt Options, w workload.Workload, size int,
	specs []simSpec, wrap func(i int, err error) error) ([]pipeline.Result, error) {
	results := make([]pipeline.Result, len(specs))
	if opt.Live {
		err := parallelSims(ctx, len(specs), func(i int) error {
			cfg := specs[i].config()
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
	sims := opt.sims
	if sims == nil {
		sims = newSimMemo() // a cell called outside RunSuite and runCells is a run of its own
	}
	prog := w.Program(size)
	err = parallelSims(ctx, len(specs), func(i int) error {
		res, err := sims.do(ctx, simKey{is: is, spec: specs[i]}, func() (pipeline.Result, error) {
			defer startSpan("cell/replay").End()
			cfg := specs[i].config()
			cfg.Interrupt = interruptHook(ctx)
			return pipeline.NewReplay(prog, is, cfg).Run()
		})
		results[i] = res
		if err != nil {
			return wrap(i, err)
		}
		return nil
	})
	return results, err
}

// simMemo is a single-flight memo of timing Results for one run: one
// RunSuite or runCells call installs a fresh one in Options. The timing
// experiments overlap — ablmemspec's naive and no-speculation columns
// are fig9's and fig10's base runs, and ablrecovery's base, selective
// and squash runs are fig9's own — so a suite over all four simulates
// 10 configurations per workload instead of 15. The first cell to ask
// for a key simulates it; a cell asking while that simulation is in
// flight waits for it, bounded by its own context; a later cell reuses
// the Result.
//
// A simulation that fails (error, deadline, cancellation or panic)
// leaves nothing behind: its entry is dropped before waiters wake, the
// failure reaches only the simulating cell, and each waiter recomputes
// under its own context. The memo never outlives its run, so -check's
// shadow run (each experiment's standalone Run) simulates afresh and
// stays an independent oracle for the scheduler's shared results.
type simMemo struct {
	mu      sync.Mutex
	entries map[simKey]*simEntry
}

// simKey identifies a simulation by the exact recording it replays — a
// recording dropped and re-recorded under the same cache key is a new
// key here — and the spec its whole pipeline.Config is built from. The
// run's recordings stay reachable through their keys until the run
// ends.
type simKey struct {
	is   *trace.IStream
	spec simSpec
}

// simEntry is one simulation's outcome. done closes when the simulating
// cell finishes; res and ok are written before that and never after.
type simEntry struct {
	done chan struct{}
	res  pipeline.Result
	ok   bool
}

func newSimMemo() *simMemo { return &simMemo{entries: make(map[simKey]*simEntry)} }

// do returns key's Result: reused when an earlier simulation of key
// succeeded, awaited (until ctx ends) while one is in flight, and
// computed by sim otherwise. sim must not consult the memo, so a waiter
// only ever waits on a running simulation, never on another waiter.
func (m *simMemo) do(ctx context.Context, key simKey, sim func() (pipeline.Result, error)) (pipeline.Result, error) {
	for {
		m.mu.Lock()
		e, found := m.entries[key]
		if !found {
			e = &simEntry{done: make(chan struct{})}
			m.entries[key] = e
		}
		m.mu.Unlock()
		if !found {
			return m.fill(key, e, sim)
		}
		select {
		case <-e.done:
			if e.ok {
				return e.res, nil
			}
			// The simulating cell failed and dropped the entry: this cell
			// simulates (or waits on whoever got there first) afresh.
		case <-ctx.Done():
			return pipeline.Result{}, ctx.Err()
		}
	}
}

// fill runs sim for key's entry e. Unless sim succeeds the entry is
// dropped before done closes, so no waiter sees the failure, and a
// panic keeps unwinding into the simulating cell's runCell.
func (m *simMemo) fill(key simKey, e *simEntry, sim func() (pipeline.Result, error)) (pipeline.Result, error) {
	defer func() {
		if !e.ok {
			m.mu.Lock()
			delete(m.entries, key)
			m.mu.Unlock()
		}
		close(e.done)
	}()
	res, err := sim()
	if err == nil {
		e.res, e.ok = res, true
	}
	return res, err
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
		if err := verifyIStreamOnce(ctx, key, is, w, size); err != nil {
			return nil, err
		}
	}
	return is, nil
}

// verifyIStreamOnce is the replay-vs-live pipeline oracle: a timing
// simulation fed from the recorded stream must produce a Result
// identical to one driven by the live functional interpreter (the feed
// is the only difference between the two simulations, so any divergence
// means the recording or the replay path is broken). verifyOnce runs it
// once per recording and gives every consumer its verdict.
func verifyIStreamOnce(ctx context.Context, key trace.Key, is *trace.IStream, w workload.Workload, size int) error {
	return verifyOnce(ctx, key, is, func() (diverged, err error) {
		prog := w.Program(size)
		cfg := pipeline.DefaultConfig()
		cfg.Interrupt = interruptHook(ctx)
		live, err := pipeline.RunProgram(prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("check: live pipeline shadow failed: %w", err)
		}
		replay, err := pipeline.NewReplay(prog, is, cfg).Run()
		if err != nil {
			return nil, fmt.Errorf("check: replayed pipeline shadow failed: %w", err)
		}
		if replay != live {
			return fmt.Errorf("check: replayed timing run diverges from live pipeline: got %+v, want %+v", replay, live), nil
		}
		return nil, nil
	})
}
