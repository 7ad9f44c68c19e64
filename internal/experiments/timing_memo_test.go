package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rarpred/internal/cloak"
	"rarpred/internal/metrics"
	"rarpred/internal/pipeline"
	"rarpred/internal/trace"
)

// The suite-level tests here count simulations through
// pipeline.insts_committed, which every pipeline run adds its committed
// instructions to; they run the two shortest timing recordings.

var pipelineInsts = metrics.Default().Counter("pipeline.insts_committed")

// timingExps are the four experiments that replay timing recordings.
func timingExps(t *testing.T) []Experiment {
	return []Experiment{mustByID(t, "fig9"), mustByID(t, "fig10"),
		mustByID(t, "ablmemspec"), mustByID(t, "ablrecovery")}
}

// recordingInsts sums the committed instructions of opt's timing
// recordings: what one simulation of every workload commits.
func recordingInsts(t *testing.T, opt Options) uint64 {
	t.Helper()
	var n uint64
	for _, w := range opt.Workloads {
		is, err := workloadIStream(context.Background(), opt, w, opt.Size, opt.maxInsts())
		if err != nil {
			t.Fatal(err)
		}
		n += is.Len()
	}
	return n
}

// suiteSims runs exps as one suite and returns how many simulations of
// each workload it ran, failing the test on any experiment error.
func suiteSims(t *testing.T, opt Options, exps []Experiment, per uint64) (uint64, map[string]string) {
	t.Helper()
	out := make(map[string]string)
	before := pipelineInsts.Value()
	RunSuite(opt, exps, func(item SuiteItem) bool {
		if item.Err != nil {
			t.Errorf("%s: %v", item.Exp.ID, item.Err)
		} else {
			out[item.Exp.ID] = item.Result.String()
		}
		return true
	})
	return (pipelineInsts.Value() - before) / per, out
}

// TestSimMemoSuiteSimulatesEachConfigOnce: fig9, fig10, ablmemspec and
// ablrecovery time 15 configurations per workload, of which 10 are
// distinct; a suite over the four simulates each distinct one once and
// renders exactly what the experiments' standalone runs render.
func TestSimMemoSuiteSimulatesEachConfigOnce(t *testing.T) {
	opt := subset("apl", "go")
	opt.Size = 2
	per := recordingInsts(t, opt)
	sims, suite := suiteSims(t, opt, timingExps(t), per)
	if sims != 10 {
		t.Errorf("suite simulated %d configurations per workload, want 10", sims)
	}
	for _, e := range timingExps(t) {
		res, err := e.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := suite[e.ID]; got != res.String() {
			t.Errorf("%s: suite diverges from standalone run:\n--- suite ---\n%s--- standalone ---\n%s",
				e.ID, got, res.String())
		}
	}
}

// TestSimMemoScopedToOneRun: every RunSuite and runCells call starts
// from an empty memo, so consecutive runs (and -check's shadow run after
// the scheduler's) never reuse each other's Results.
func TestSimMemoScopedToOneRun(t *testing.T) {
	opt := subset("apl", "go")
	opt.Size = 2
	per := recordingInsts(t, opt)
	for run := 1; run <= 2; run++ {
		if sims, _ := suiteSims(t, opt, timingExps(t), per); sims != 10 {
			t.Errorf("suite run %d simulated %d configurations per workload, want 10", run, sims)
		}
	}
	for run := 1; run <= 2; run++ {
		before := pipelineInsts.Value()
		if _, err := runFig9(opt); err != nil {
			t.Fatal(err)
		}
		if sims := (pipelineInsts.Value() - before) / per; sims != 5 {
			t.Errorf("standalone fig9 run %d simulated %d configurations per workload, want 5", run, sims)
		}
	}
}

// waitProbe is a context that reports when the code under test first
// asks for its Done channel — for simMemo.do and verifyOnce, the moment
// a caller starts waiting on someone else's work.
type waitProbe struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitProbe(ctx context.Context) *waitProbe {
	return &waitProbe{Context: ctx, waiting: make(chan struct{})}
}

func (p *waitProbe) Done() <-chan struct{} {
	p.once.Do(func() { close(p.waiting) })
	return p.Context.Done()
}

// TestSimMemoFailureNotInherited: when the simulating cell fails —
// error, panic, cancellation or deadline — every cell waiting on it
// recomputes under its own context (one recomputation, which the rest
// reuse) and none of them sees the failure, while the failure itself
// still reaches the simulating cell.
func TestSimMemoFailureNotInherited(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		fail func(ctx context.Context, cancel context.CancelFunc) (pipeline.Result, error)
		want func(err error, panicked any) bool
	}{
		{
			name: "error",
			ctx:  func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			fail: func(context.Context, context.CancelFunc) (pipeline.Result, error) {
				return pipeline.Result{Cycles: 1}, boom
			},
			want: func(err error, _ any) bool { return errors.Is(err, boom) },
		},
		{
			name: "panic",
			ctx:  func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			fail: func(context.Context, context.CancelFunc) (pipeline.Result, error) { panic(boom) },
			want: func(_ error, panicked any) bool { return panicked == boom },
		},
		{
			name: "canceled",
			ctx:  func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			fail: func(ctx context.Context, cancel context.CancelFunc) (pipeline.Result, error) {
				cancel() // what the Interrupt hook then reports
				return pipeline.Result{}, ctx.Err()
			},
			want: func(err error, _ any) bool { return errors.Is(err, context.Canceled) },
		},
		{
			name: "deadline",
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithDeadline(context.Background(), time.Unix(0, 0))
			},
			fail: func(ctx context.Context, _ context.CancelFunc) (pipeline.Result, error) {
				return pipeline.Result{}, ctx.Err()
			},
			want: func(err error, _ any) bool { return errors.Is(err, context.DeadlineExceeded) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newSimMemo()
			key := simKey{is: trace.NewIStream(), spec: baseSpec(pipeline.NaiveSpec)}
			ownerCtx, cancel := tc.ctx()
			defer cancel()

			var (
				wg         sync.WaitGroup
				ownerErr   error
				ownerPanic any
			)
			started, release := make(chan struct{}), make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { ownerPanic = recover() }()
				_, ownerErr = m.do(ownerCtx, key, func() (pipeline.Result, error) {
					close(started)
					<-release
					return tc.fail(ownerCtx, cancel)
				})
			}()
			<-started

			const waiters = 4
			var recomputed atomic.Int32
			results := make([]pipeline.Result, waiters)
			errs := make([]error, waiters)
			for i := 0; i < waiters; i++ {
				probe := newWaitProbe(context.Background())
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = m.do(probe, key, func() (pipeline.Result, error) {
						recomputed.Add(1)
						return pipeline.Result{Cycles: 42}, nil
					})
				}(i)
				<-probe.waiting
			}
			close(release)
			wg.Wait()

			if !tc.want(ownerErr, ownerPanic) {
				t.Errorf("simulating cell got err %v, panic %v; want its own failure", ownerErr, ownerPanic)
			}
			for i := range results {
				if errs[i] != nil || results[i].Cycles != 42 {
					t.Errorf("waiter %d got (%+v, %v), want its own recomputed Result", i, results[i], errs[i])
				}
			}
			if n := recomputed.Load(); n != 1 {
				t.Errorf("waiters recomputed %d times, want once", n)
			}
			res, err := m.do(context.Background(), key, func() (pipeline.Result, error) {
				t.Error("a later cell re-simulated a memoized key")
				return pipeline.Result{}, nil
			})
			if err != nil || res.Cycles != 42 {
				t.Errorf("later cell got (%+v, %v), want the recomputed Result", res, err)
			}
		})
	}
}

// TestSimMemoWaiterBoundedByOwnContext: a cell waiting on another cell's
// simulation gives up when its own context ends, and the simulation it
// waited on still completes and is memoized for everyone else.
func TestSimMemoWaiterBoundedByOwnContext(t *testing.T) {
	m := newSimMemo()
	key := simKey{is: trace.NewIStream(), spec: baseSpec(pipeline.NaiveSpec)}
	started, release := make(chan struct{}), make(chan struct{})
	var ownerRes pipeline.Result
	var ownerErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		ownerRes, ownerErr = m.do(context.Background(), key, func() (pipeline.Result, error) {
			close(started)
			<-release
			return pipeline.Result{Cycles: 7}, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	probe := newWaitProbe(ctx)
	waiterErr := make(chan error, 1)
	go func() {
		_, err := m.do(probe, key, func() (pipeline.Result, error) {
			t.Error("waiter simulated a key already in flight")
			return pipeline.Result{}, nil
		})
		waiterErr <- err
	}()
	<-probe.waiting
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter got %v, want context.Canceled", err)
	}
	close(release)
	<-done
	if ownerErr != nil || ownerRes.Cycles != 7 {
		t.Fatalf("simulating cell got (%+v, %v)", ownerRes, ownerErr)
	}
	res, err := m.do(context.Background(), key, func() (pipeline.Result, error) {
		t.Error("a later cell re-simulated a memoized key")
		return pipeline.Result{}, nil
	})
	if err != nil || res.Cycles != 7 {
		t.Errorf("later cell got (%+v, %v), want the memoized Result", res, err)
	}
}

// TestSimMemoSpecsNeverShare: specs that differ in recovery, memory
// dependence speculation or cloak mode — or the same spec on another
// recording — are separate simulations; and no two distinct specs build
// the same pipeline.Config, so the spec key can never merge two
// configurations.
func TestSimMemoSpecsNeverShare(t *testing.T) {
	is, other := trace.NewIStream(), trace.NewIStream()
	rawrar := func(rec pipeline.RecoveryPolicy) simSpec {
		return cloakSpec(cloak.ModeRAWRAR, rec, pipeline.NaiveSpec)
	}
	pairs := []struct {
		name string
		a, b simKey
	}{
		{"recovery oracle vs selective", simKey{is, rawrar(pipeline.Oracle)}, simKey{is, rawrar(pipeline.Selective)}},
		{"recovery squash vs selective", simKey{is, rawrar(pipeline.Squash)}, simKey{is, rawrar(pipeline.Selective)}},
		{"memspec base", simKey{is, baseSpec(pipeline.NoSpec)}, simKey{is, baseSpec(pipeline.NaiveSpec)}},
		{"memspec cloaked", simKey{is, cloakSpec(cloak.ModeRAW, pipeline.Selective, pipeline.NoSpec)},
			simKey{is, cloakSpec(cloak.ModeRAW, pipeline.Selective, pipeline.NaiveSpec)}},
		{"cloak mode", simKey{is, cloakSpec(cloak.ModeRAW, pipeline.Selective, pipeline.NaiveSpec)}, simKey{is, rawrar(pipeline.Selective)}},
		{"cloaked vs base", simKey{is, cloakSpec(cloak.ModeRAW, pipeline.Selective, pipeline.NaiveSpec)},
			simKey{is, baseSpec(pipeline.NaiveSpec)}},
		{"recording", simKey{is, baseSpec(pipeline.NaiveSpec)}, simKey{other, baseSpec(pipeline.NaiveSpec)}},
	}
	for _, p := range pairs {
		m := newSimMemo()
		sims := uint64(0)
		sim := func() (pipeline.Result, error) {
			sims++
			return pipeline.Result{Cycles: sims}, nil
		}
		ra, _ := m.do(context.Background(), p.a, sim)
		rb, _ := m.do(context.Background(), p.b, sim)
		if sims != 2 || ra == rb {
			t.Errorf("%s: shared one simulation (%d run)", p.name, sims)
		}
	}

	var specs []simSpec
	for _, pol := range []pipeline.MemSpecPolicy{pipeline.NaiveSpec, pipeline.NoSpec, pipeline.StoreSets} {
		specs = append(specs, baseSpec(pol))
		for _, mode := range []cloak.Mode{cloak.ModeRAW, cloak.ModeRAWRAR} {
			for _, rec := range []pipeline.RecoveryPolicy{pipeline.Selective, pipeline.Squash, pipeline.Oracle} {
				specs = append(specs, cloakSpec(mode, rec, pol))
			}
		}
	}
	for i := range specs {
		for j := i + 1; j < len(specs); j++ {
			if reflect.DeepEqual(specs[i].config(), specs[j].config()) {
				t.Errorf("specs %+v and %+v build the same pipeline.Config", specs[i], specs[j])
			}
		}
	}
}

// TestSimSpecConfigs pins the configurations the timing experiments
// time: the Section 5.1 base processor, plus Section 5.6.1's cloaking
// tables with bypassing when cloaked.
func TestSimSpecConfigs(t *testing.T) {
	base := pipeline.DefaultConfig()
	base.MemSpec = pipeline.NoSpec
	if got := baseSpec(pipeline.NoSpec).config(); !reflect.DeepEqual(got, base) {
		t.Errorf("base spec config = %+v, want %+v", got, base)
	}
	cloaked := pipeline.DefaultConfig()
	cc := cloak.TimingConfig(cloak.ModeRAW)
	cloaked.Cloak = &cc
	cloaked.Bypassing = true
	cloaked.Recovery = pipeline.Squash
	if got := cloakSpec(cloak.ModeRAW, pipeline.Squash, pipeline.NaiveSpec).config(); !reflect.DeepEqual(got, cloaked) {
		t.Errorf("cloaked spec config = %+v, want %+v", got, cloaked)
	}
}
