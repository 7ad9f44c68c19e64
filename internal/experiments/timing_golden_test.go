package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/pipeline"
	"rarpred/internal/workload"
)

// TestTimingResultsGolden pins every field of the walked
// pipeline.Result, L1IMissRate and BranchAcc included, which no report
// prints: the 10 distinct specs of the four timing experiments on all 18
// workloads at size 2, timed by one timing job each, plus the RAW+RAR
// selective spec with a 4-entry load/store scheduler and with sampling,
// each replayed alone. Walked and live Sims share the program-order
// machine, so walk-vs-live cannot catch a machine whose outcomes depend
// on timing; this golden can. Regenerate it with -update only for a
// change meant to move a Result.
func TestTimingResultsGolden(t *testing.T) {
	opt := Options{Size: 2, Parallelism: 2}
	specs := timingSpecs(t)
	all := simCells(specs, nil,
		func(_ workload.Workload, res []pipeline.Result) []pipeline.Result { return res }, nil).(simRunner)
	rawrar := cloakSpec(cloak.ModeRAWRAR, pipeline.Selective, pipeline.NaiveSpec)
	small, sampled := rawrar.config(), rawrar.config()
	small.LSQSize = 4
	sampled.SampleRatio, sampled.ObservationSize = 2, 3000
	variants := []struct {
		name string
		cfg  pipeline.Config
	}{{"lsq4", small}, {"sampled", sampled}}

	var b strings.Builder
	for _, w := range opt.workloads() {
		is, err := timingStream(context.Background(), opt, w)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := runSims(context.Background(), opt, w, is, []simRunner{all})
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range rows[0].([]pipeline.Result) {
			s, name := specs[i], "base"
			if s.cloaked {
				name = fmt.Sprintf("%v/%v", s.mode, s.recovery)
			}
			fmt.Fprintf(&b, "%s %s/%v: %+v\n", w.Abbrev, name, s.memSpec, res)
		}
		prog := w.Program(opt.size(workload.TimingSize))
		for _, v := range variants {
			res, err := pipeline.NewReplay(prog, is, v.cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s RAW+RAR/selective/naive/%s: %+v\n", w.Abbrev, v.name, res)
		}
	}
	checkGolden(t, "timing_results", b.String())
}
