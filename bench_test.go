// Benchmarks: one per table and figure of the paper's evaluation, plus
// the ablations DESIGN.md calls out. Each benchmark regenerates its
// experiment end to end (workload build, simulation, analysis) at a
// reduced workload size and reports the experiment's headline metric(s)
// via b.ReportMetric, so `go test -bench=. -benchmem` both exercises and
// summarises the reproduction.
package rarpred

import (
	"strings"
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/experiments"
	"rarpred/internal/funcsim"
	"rarpred/internal/pipeline"
	"rarpred/internal/workload"
)

// benchSize keeps bench iterations affordable while staying in the same
// steady state as the full experiments.
const benchSize = 6

func benchOptions() experiments.Options {
	return experiments.Options{Size: benchSize}
}

func runExperiment(b *testing.B, id string) experiments.Result {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable51 regenerates Table 5.1 (benchmark characteristics).
func BenchmarkTable51(b *testing.B) {
	res := runExperiment(b, "table51")
	r := res.(*experiments.Table51Result)
	var insts uint64
	for _, row := range r.Rows {
		insts += row.Counts.Insts
	}
	b.ReportMetric(float64(insts)/1e6, "Minsts/suite")
}

// BenchmarkFig2 regenerates Figure 2 (RAR dependence locality) and
// reports the suite-mean locality(4) under the infinite window.
func BenchmarkFig2(b *testing.B) {
	res := runExperiment(b, "fig2")
	r := res.(*experiments.Fig2Result)
	sum := 0.0
	for _, row := range r.Rows {
		sum += row.Infinite[3]
	}
	b.ReportMetric(100*sum/float64(len(r.Rows)), "locality4-%")
}

// BenchmarkFig5 regenerates Figure 5 (dependence visibility vs DDT size)
// and reports mean total detection at the 128-entry DDT.
func BenchmarkFig5(b *testing.B) {
	res := runExperiment(b, "fig5")
	r := res.(*experiments.Fig5Result)
	sum := 0.0
	for _, row := range r.Rows {
		p, _ := row.Point(128)
		sum += p.RAWFrac + p.RARFrac
	}
	b.ReportMetric(100*sum/float64(len(r.Rows)), "detected128-%")
}

// BenchmarkFig6 regenerates Figure 6 (coverage and misspeculation) and
// reports the adaptive predictor's mean coverage and misspeculation.
func BenchmarkFig6(b *testing.B) {
	res := runExperiment(b, "fig6")
	r := res.(*experiments.Fig6Result)
	b.ReportMetric(100*r.CovAllTwoBit, "coverage-%")
	b.ReportMetric(100*r.MispAllTwoBit, "misp-%")
}

// BenchmarkFig7a regenerates Figure 7(a) (address locality breakdown).
func BenchmarkFig7a(b *testing.B) {
	res := runExperiment(b, "fig7a")
	r := res.(*experiments.Fig7Result)
	sum := 0.0
	for _, row := range r.Rows {
		sum += row.Local()
	}
	b.ReportMetric(100*sum/float64(len(r.Rows)), "addrlocal-%")
}

// BenchmarkFig7b regenerates Figure 7(b) (value locality breakdown).
func BenchmarkFig7b(b *testing.B) {
	res := runExperiment(b, "fig7b")
	r := res.(*experiments.Fig7Result)
	sum := 0.0
	for _, row := range r.Rows {
		sum += row.Local()
	}
	b.ReportMetric(100*sum/float64(len(r.Rows)), "valuelocal-%")
}

// BenchmarkTable52 regenerates the Section 5.5 cloaking-vs-VP table and
// reports how many programs cloaking-only coverage wins.
func BenchmarkTable52(b *testing.B) {
	res := runExperiment(b, "table52")
	r := res.(*experiments.Table52Result)
	wins := 0
	for _, row := range r.Rows {
		if row.CloakOnlyTotal() > row.VPOnly {
			wins++
		}
	}
	b.ReportMetric(float64(wins), "cloak-wins")
}

// BenchmarkFig9 regenerates Figure 9 (speedups with naive memory
// dependence speculation) and reports the class means.
func BenchmarkFig9(b *testing.B) {
	res := runExperiment(b, "fig9")
	r := res.(*experiments.Fig9Result)
	b.ReportMetric(100*r.SelRAWRARInt, "int-speedup-%")
	b.ReportMetric(100*r.SelRAWRARFP, "fp-speedup-%")
}

// BenchmarkFig10 regenerates Figure 10 (no memory dependence speculation).
func BenchmarkFig10(b *testing.B) {
	res := runExperiment(b, "fig10")
	r := res.(*experiments.Fig9Result)
	b.ReportMetric(100*r.SelRAWRARInt, "int-speedup-%")
	b.ReportMetric(100*r.SelRAWRARFP, "fp-speedup-%")
}

// BenchmarkAblationMerge compares synonym merge policies (Section 5.1).
func BenchmarkAblationMerge(b *testing.B) {
	res := runExperiment(b, "ablmerge")
	r := res.(*experiments.AblationResult)
	reportAblation(b, r)
}

// BenchmarkAblationSplitDDT compares the shared DDT against the split
// store/load DDT that removes the Section 5.6.2 eviction anomaly.
func BenchmarkAblationSplitDDT(b *testing.B) {
	res := runExperiment(b, "ablsplit")
	r := res.(*experiments.AblationResult)
	reportAblation(b, r)
}

// BenchmarkAblationDPNT sweeps DPNT capacity.
func BenchmarkAblationDPNT(b *testing.B) {
	res := runExperiment(b, "abldpnt")
	r := res.(*experiments.AblationResult)
	reportAblation(b, r)
}

func reportAblation(b *testing.B, r *experiments.AblationResult) {
	for i, v := range r.Variants {
		sum := 0.0
		for _, row := range r.Rows {
			sum += row.Cells[i].Coverage
		}
		unit := strings.ReplaceAll(v, " ", "") + "-cov-%"
		b.ReportMetric(100*sum/float64(len(r.Rows)), unit)
	}
}

// BenchmarkAblationConfidence isolates the 1-bit/2-bit comparison that
// Figure 6 embeds: mean misspeculation under each confidence mechanism.
func BenchmarkAblationConfidence(b *testing.B) {
	res := runExperiment(b, "fig6")
	r := res.(*experiments.Fig6Result)
	oneBit, twoBit := 0.0, 0.0
	for _, row := range r.Rows {
		oneBit += row.OneBit.Misp()
		twoBit += row.TwoBit.Misp()
	}
	n := float64(len(r.Rows))
	b.ReportMetric(100*oneBit/n, "1bit-misp-%")
	b.ReportMetric(100*twoBit/n, "2bit-misp-%")
}

// functionalIDs are the experiments that consume only the committed
// reference stream (everything but the cycle-level timing runs).
var functionalIDs = []string{
	"table51", "fig2", "fig5", "fig6", "fig7a", "fig7b", "table52",
	"synergy", "ablprofile", "ablmerge", "ablsplit", "abldpnt",
	"ablwindow", "abldist",
}

// BenchmarkSuiteFunctional runs every functional experiment back to
// back, each alone (Experiment.Run, a suite of one, so every experiment
// records every workload with the fast recorder and replays the
// recording in a pass of its own). Nothing carries a recording from one
// experiment to the next, so each iteration pays for every recording.
func BenchmarkSuiteFunctional(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, id := range functionalIDs {
			e, _ := experiments.ByID(id)
			if _, err := e.Run(benchOptions()); err != nil {
				b.Fatalf("%s: %v", id, err)
			}
		}
	}
}

// BenchmarkSuiteAll runs the entire suite — every (experiment ×
// workload) cell — two ways:
//
//	seq:       experiments one at a time, each a suite of its own
//	           (Experiment.Run), so no two experiments share a job
//	scheduler: one suite over all cells (RunSuite), each workload's
//	           functional cells sharing one recording and one replay,
//	           and its timing cells one recording and one simulation
//	           per distinct config
//
// The seq/scheduler ratio is the suite-level speedup. It comes from the
// shared jobs and from the pool: it grows with GOMAXPROCS, since seq
// waits out each experiment's stragglers while one suite keeps every
// core fed. Both sub-benchmarks record every workload in every
// iteration (seq once per experiment, the scheduler once per job), so
// the ratio includes the recordings the shared jobs save.
func BenchmarkSuiteAll(b *testing.B) {
	exps := experiments.All()
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, e := range exps {
				if _, err := e.Run(benchOptions()); err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
			}
		}
	})
	b.Run("scheduler", func(b *testing.B) {
		var last experiments.SuiteStats
		for i := 0; i < b.N; i++ {
			last = experiments.RunSuite(benchOptions(), exps,
				func(item experiments.SuiteItem) bool {
					if item.Err != nil {
						b.Errorf("%s: %v", item.Exp.ID, item.Err)
						return false
					}
					return true
				})
		}
		if last.Wall > 0 && last.Workers > 0 {
			b.ReportMetric(last.Busy.Seconds()/(last.Wall.Seconds()*float64(last.Workers)), "utilization")
		}
	})
}

// BenchmarkFunctionalSim measures raw functional-simulation throughput.
func BenchmarkFunctionalSim(b *testing.B) {
	w, _ := workload.ByAbbrev("gcc")
	prog := w.Assemble(benchSize)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		c, err := funcsim.RunProgram(prog, 0)
		if err != nil {
			b.Fatal(err)
		}
		insts = c.Insts
	}
	b.ReportMetric(float64(insts), "insts/run")
}

// BenchmarkTimingSim measures cycle-level simulation throughput.
func BenchmarkTimingSim(b *testing.B) {
	w, _ := workload.ByAbbrev("gcc")
	prog := w.Assemble(benchSize)
	cfg := pipeline.DefaultConfig()
	cc := cloak.TimingConfig(cloak.ModeRAWRAR)
	cfg.Cloak = &cc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.RunProgram(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
