package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/metrics"
	"rarpred/internal/pipeline"
	"rarpred/internal/workload"
)

// timingExps are the four experiments that replay timing recordings.
func timingExps(t *testing.T) []Experiment {
	return []Experiment{mustByID(t, "fig9"), mustByID(t, "fig10"),
		mustByID(t, "ablmemspec"), mustByID(t, "ablrecovery")}
}

// timingRows returns a timing experiment's rows, nil for any other
// Result (a partial one included).
func timingRows(r Result) []any {
	switch r := r.(type) {
	case *Fig9Result:
		return boxRows(r.Rows)
	case *MemSpecResult:
		return boxRows(r.Rows)
	case *RecoveryResult:
		return boxRows(r.Rows)
	}
	return nil
}

// TestSuiteTimingMatchesStandaloneCells: with one timing job per
// workload for the four timing experiments, each cell's row equals the
// row of that experiment's standalone cell (a job of its own) on every
// workload. The standalone cells load what the suite recorded.
func TestSuiteTimingMatchesStandaloneCells(t *testing.T) {
	opt := tiny()
	opt.Parallelism = 2
	opt.Store = &fakeTier{}
	items := suiteRows(opt, timingExps(t))
	for _, e := range timingExps(t) {
		item := items[e.ID]
		if item.Err != nil {
			t.Fatalf("%s: %v", e.ID, item.Err)
		}
		rows := timingRows(item.Result)
		if len(rows) != len(opt.workloads()) {
			t.Fatalf("%s: %d rows from %s", e.ID, len(rows), item.Result)
		}
		for wi, w := range opt.workloads() {
			if !item.Cells[wi].Fused {
				t.Errorf("%s/%s did not run in its workload's timing job", e.ID, w.Name)
			}
			want := standaloneCell(t, opt, w, e.Cells)
			// %#v rather than reflect.DeepEqual: Workload carries a
			// generator func, and DeepEqual calls any non-nil func unequal.
			if got, want := fmt.Sprintf("%#v", rows[wi]), fmt.Sprintf("%#v", want); got != want {
				t.Errorf("%s/%s: suite row differs from the standalone cell:\n got %s\nwant %s", e.ID, w.Name, got, want)
			}
		}
	}
}

// simBomb is a synthetic timing experiment whose row step panics on one
// workload. It times fig10's base configuration, which its workload's
// timing job shares with fig10 and ablmemspec.
func simBomb(bad string) Experiment {
	return Experiment{
		ID:    "simbomb",
		Title: "synthetic timing row step that panics on " + bad,
		Cells: simCells([]simSpec{baseSpec(pipeline.NoSpec)}, nil,
			func(w workload.Workload, res []pipeline.Result) countRow {
				if w.Name == bad {
					panic("row step exploded")
				}
				return countRow{Workload: w, Value: int(res[0].Cycles)}
			},
			countLines),
	}
}

// recordingInsts sums the committed instructions of opt's timing
// recordings: what one simulation of every workload commits.
func recordingInsts(t *testing.T, opt Options) uint64 {
	t.Helper()
	var n uint64
	for _, w := range opt.workloads() {
		is, err := timingStream(context.Background(), opt, w)
		if err != nil {
			t.Fatal(err)
		}
		n += is.Len()
	}
	return n
}

// TestSimMemoSuiteSimulatesEachConfigOnce: fig9, fig10, ablmemspec and
// ablrecovery time 15 configurations per workload, of which 10 are
// distinct. A suite over the four simulates each distinct one once —
// 17,529,340 committed instructions at size 4, the timing share of
// `rarsim -exp all -size 4` — replays no memory stream, and renders
// exactly what the experiments' standalone runs render, which simulate
// their own 5, 3, 3 and 4 configurations. Every run after the first
// recording loads it from a test-local store.
func TestSimMemoSuiteSimulatesEachConfigOnce(t *testing.T) {
	opt := tiny()
	opt.Store = &fakeTier{}
	insts := recordingInsts(t, opt)
	items, d := suiteWork(t, opt, timingExps(t))
	if want := [3]uint64{0, 0, 17_529_340}; d != want {
		t.Errorf("trace.events_replayed, cloak.engine_loads, pipeline.insts_committed grew by %v, want %v", d, want)
	}
	if d[2] != 10*insts {
		t.Errorf("pipeline.insts_committed grew by %d, want 10 configs x %d instructions", d[2], insts)
	}
	for i, e := range timingExps(t) {
		var res Result
		d := grown(func() {
			var err error
			if res, err = e.Run(opt); err != nil {
				t.Fatal(err)
			}
		})
		if want := []uint64{5, 3, 3, 4}[i]; d[2] != want*insts {
			t.Errorf("standalone %s committed %d instructions, want %d configs x %d", e.ID, d[2], want, insts)
		}
		if got := items[e.ID].Result.String(); got != res.String() {
			t.Errorf("%s: suite diverges from standalone run:\n--- suite ---\n%s--- standalone ---\n%s",
				e.ID, got, res.String())
		}
	}
}

// timingSpecs returns the distinct specs of the four timing experiments,
// in first-request order.
func timingSpecs(t *testing.T) []simSpec {
	var specs []simSpec
	seen := map[simSpec]bool{}
	for _, e := range timingExps(t) {
		for _, s := range e.Cells.(simRunner).sims() {
			if !seen[s] {
				seen[s] = true
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// TestTimingJobWalkMatchesLive is the premise of the timing job's walk:
// a cloak engine sees only the committed loads and stores in program
// order, so one engine per cloak config can decide for every Sim of the
// config. Every distinct spec of the four timing experiments, timed by
// one timing job (one walk, its Sims fanned out two at a time), must
// equal pipeline.RunProgram's Result, which runs the live interpreter
// and an engine of its own inline, on all 18 workloads. Both feeds run
// the same machine code, so TestTimingResultsGolden pins the machine.
func TestTimingJobWalkMatchesLive(t *testing.T) {
	opt := Options{Size: 2, Parallelism: 2}
	specs := timingSpecs(t)
	if len(specs) != 10 {
		t.Fatalf("%d distinct timing specs, want 10", len(specs))
	}
	all := simCells(specs, nil,
		func(_ workload.Workload, res []pipeline.Result) []pipeline.Result { return res }, nil).(simRunner)
	for _, w := range opt.workloads() {
		t.Run(w.Abbrev, func(t *testing.T) {
			t.Parallel()
			is, err := timingStream(context.Background(), opt, w)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := runSims(context.Background(), opt, w, is, []simRunner{all})
			if err != nil {
				t.Fatal(err)
			}
			walked := rows[0].([]pipeline.Result)
			prog := w.Assemble(opt.size(workload.TimingSize))
			for i, s := range specs {
				live, err := pipeline.RunProgram(prog, s.config())
				if err != nil {
					t.Fatal(err)
				}
				if walked[i] != live {
					t.Errorf("spec %+v: walked Result differs from the live run:\n got %+v\nwant %+v", s, walked[i], live)
				}
			}
		})
	}
}

// walkWork runs f and returns how much pipeline.stream_walks and
// pipeline.engine_loads grew: the walks over instruction streams it
// made, and the loads their cloak engines decided.
func walkWork(f func()) (walks, loads uint64) {
	w, l := metrics.Default().Counter("pipeline.stream_walks"), metrics.Default().Counter("pipeline.engine_loads")
	w0, l0 := w.Value(), l.Value()
	f()
	return w.Value() - w0, l.Value() - l0
}

// TestTimingJobWalksOnce pins the work the walk saves: a timing job
// walks its stream once, whatever its specs, and its engines decide
// each load once per distinct cloak config. A suite of the four timing
// experiments at size 4 walks each stream once, and its engines (RAW and
// RAW+RAR) decide each load twice. Run alone, fig9 and fig10 each make
// one walk with two engines, ablrecovery one walk with one engine
// (RAW+RAR) and ablmemspec, all base processor, one walk with none. The
// counts are per stream, so two workloads keep the test short under the
// race detector, and every run after the first recording loads it from
// a test-local store; TestSimMemoSuiteSimulatesEachConfigOnce pins the
// whole suite's simulations.
func TestTimingJobWalksOnce(t *testing.T) {
	opt := subset("apl", "go")
	opt.Store = &fakeTier{}
	var streams, loads uint64
	for _, w := range opt.workloads() {
		is, err := timingStream(context.Background(), opt, w)
		if err != nil {
			t.Fatal(err)
		}
		streams++
		loads += is.Counts.Loads
	}
	walks, decided := walkWork(func() { suiteWork(t, opt, timingExps(t)) })
	if walks != streams || decided != 2*loads {
		t.Errorf("suite walked %d streams and decided %d loads, want %d and 2 x %d", walks, decided, streams, loads)
	}
	for i, e := range timingExps(t) {
		walks, decided := walkWork(func() {
			if _, err := e.Run(opt); err != nil {
				t.Fatal(err)
			}
		})
		wantEngines := []uint64{2, 2, 0, 1}[i]
		if walks != streams || decided != wantEngines*loads {
			t.Errorf("standalone %s walked %d streams and decided %d loads, want %d and %d x %d",
				e.ID, walks, decided, streams, wantEngines, loads)
		}
	}
}

// TestSimMemoScopedToOneRun: no run reuses another run's simulations, so
// consecutive suites (and -check's shadow run after the scheduler's)
// each simulate every configuration they time.
func TestSimMemoScopedToOneRun(t *testing.T) {
	opt := subset("apl", "go")
	opt.Size = 2
	per := recordingInsts(t, opt)
	for run := 1; run <= 2; run++ {
		if _, d := suiteWork(t, opt, timingExps(t)); d[2] != 10*per {
			t.Errorf("suite run %d simulated %d configurations per workload, want 10", run, d[2]/per)
		}
	}
	for run := 1; run <= 2; run++ {
		d := grown(func() {
			if _, err := mustByID(t, "fig9").Run(opt); err != nil {
				t.Fatal(err)
			}
		})
		if d[2] != 5*per {
			t.Errorf("standalone fig9 run %d simulated %d configurations per workload, want 5", run, d[2]/per)
		}
	}
}

// TestSimMemoSpecsNeverShare: in one timing job, specs that differ in
// recovery, memory dependence speculation or cloak mode are separate
// simulations, while two cells timing the same spec share one; and no
// two distinct specs build the same pipeline.Config, so deduping on the
// spec can never merge two configurations.
func TestSimMemoSpecsNeverShare(t *testing.T) {
	opt := subset("apl")
	opt.Size = 2
	w := opt.Workloads[0]
	is, err := timingStream(context.Background(), opt, w)
	if err != nil {
		t.Fatal(err)
	}
	timed := func(s simSpec) simRunner {
		return simCells([]simSpec{s}, nil,
			func(_ workload.Workload, res []pipeline.Result) pipeline.Result { return res[0] }, nil).(simRunner)
	}
	rawrar := func(rec pipeline.RecoveryPolicy) simSpec {
		return cloakSpec(cloak.ModeRAWRAR, rec, pipeline.NaiveSpec)
	}
	pairs := []struct {
		name string
		a, b simSpec
		sims uint64
	}{
		{"recovery oracle vs selective", rawrar(pipeline.Oracle), rawrar(pipeline.Selective), 2},
		{"recovery squash vs selective", rawrar(pipeline.Squash), rawrar(pipeline.Selective), 2},
		{"memspec base", baseSpec(pipeline.NoSpec), baseSpec(pipeline.NaiveSpec), 2},
		{"memspec cloaked", cloakSpec(cloak.ModeRAW, pipeline.Selective, pipeline.NoSpec),
			cloakSpec(cloak.ModeRAW, pipeline.Selective, pipeline.NaiveSpec), 2},
		{"cloak mode", cloakSpec(cloak.ModeRAW, pipeline.Selective, pipeline.NaiveSpec), rawrar(pipeline.Selective), 2},
		{"cloaked vs base", cloakSpec(cloak.ModeRAW, pipeline.Selective, pipeline.NaiveSpec), baseSpec(pipeline.NaiveSpec), 2},
		{"same spec", rawrar(pipeline.Squash), rawrar(pipeline.Squash), 1},
	}
	for _, p := range pairs {
		var rows []any
		d := grown(func() {
			if rows, err = runSims(context.Background(), opt, w, is, []simRunner{timed(p.a), timed(p.b)}); err != nil {
				t.Fatal(err)
			}
		})
		if d[2] != p.sims*is.Len() {
			t.Errorf("%s: ran %d simulations, want %d", p.name, d[2]/is.Len(), p.sims)
		}
		if p.sims == 1 && rows[0] != rows[1] {
			t.Errorf("%s: the cells got different Results %+v and %+v", p.name, rows[0], rows[1])
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
