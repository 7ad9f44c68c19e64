package experiments

import (
	"context"
	"fmt"
	"strings"

	"rarpred/internal/cloak"
	"rarpred/internal/pipeline"
	"rarpred/internal/runerr"
	"rarpred/internal/stats"
	"rarpred/internal/workload"
)

func init() {
	register(Experiment{
		ID: "fig9",
		Title: "Figure 9: speedup of RAW and RAW+RAR cloaking/bypassing " +
			"with selective and squash invalidation (naive memory " +
			"dependence speculation baseline)",
		Cells: timingCells(false),
	})
	register(Experiment{
		ID: "fig10",
		Title: "Figure 10: speedup of RAW and RAW+RAR cloaking/bypassing " +
			"when the base processor does not speculate on memory " +
			"dependences",
		Cells: timingCells(true),
	})
}

// Fig9Row is one workload's timing results.
type Fig9Row struct {
	Workload workload.Workload

	BaseCycles uint64

	// Speedups (positive = faster than base) for the four mechanisms of
	// Figure 9. Fig10 rows only fill the Selective pair.
	SelRAW    float64
	SelRAWRAR float64
	SqRAW     float64
	SqRAWRAR  float64

	// Diagnostics from the RAW+RAR selective run.
	Covered float64 // covered loads fraction
	IPCBase float64
}

// Fig9Result reproduces Figure 9 (or Figure 10 when NoSpec is set).
type Fig9Result struct {
	NoSpec bool
	Rows   []Fig9Row

	// Means over classes (arithmetic mean of percentage speedups, as the
	// paper quotes: "on the average performance improvements are ...").
	SelRAWInt, SelRAWFP, SelRAWAll          float64
	SelRAWRARInt, SelRAWRARFP, SelRAWRARAll float64

	// HMSelective is the harmonic-mean speedup of the selective RAW+RAR
	// mechanism (the paper's "HM Selective" marker): the speedup implied
	// by harmonically averaging normalized execution times.
	HMSelective float64
}

func speedup(base, mech uint64) float64 {
	if mech == 0 {
		return 0
	}
	return float64(base)/float64(mech) - 1
}

// timingCells runs each workload's three (fig10) or five (fig9) pipeline
// configurations as concurrent simulations replaying one shared
// instruction recording (runTimingConfigs): the simulators are
// deterministic and no state is shared, so the cell uses one core per
// configuration (parallelSims). Under the suite scheduler, fig9's base
// and RAW+RAR runs are also ablmemspec's and ablrecovery's, and fig10's
// base run is ablmemspec's no-speculation column; whichever cell gets
// to a configuration first simulates it for all of them (simMemo).
func timingCells(nospec bool) CellRunner {
	pol := pipeline.NaiveSpec
	if nospec {
		pol = pipeline.NoSpec
	}
	return cells(
		func(ctx context.Context, opt Options, w workload.Workload) (Fig9Row, error) {
			size := opt.size(workload.TimingSize)
			row := Fig9Row{Workload: w}
			specs := []simSpec{
				baseSpec(pol),
				cloakSpec(cloak.ModeRAW, pipeline.Selective, pol),
				cloakSpec(cloak.ModeRAWRAR, pipeline.Selective, pol),
			}
			if !nospec {
				specs = append(specs,
					cloakSpec(cloak.ModeRAW, pipeline.Squash, pol),
					cloakSpec(cloak.ModeRAWRAR, pipeline.Squash, pol))
			}
			results, err := runTimingConfigs(ctx, opt, w, size, specs, func(i int, err error) error {
				if i == 0 {
					return fmt.Errorf("%s base: %w", w.Name, err)
				}
				return err
			})
			if err != nil {
				return row, err
			}
			base := results[0]
			row.BaseCycles = base.Cycles
			row.IPCBase = base.IPC()
			row.SelRAW = speedup(base.Cycles, results[1].Cycles)
			row.SelRAWRAR = speedup(base.Cycles, results[2].Cycles)
			if selBoth := results[2]; selBoth.Insts > 0 {
				row.Covered = float64(selBoth.SpecCorrect) / float64(selBoth.Insts)
			}
			if !nospec {
				row.SqRAW = speedup(base.Cycles, results[3].Cycles)
				row.SqRAWRAR = speedup(base.Cycles, results[4].Cycles)
			}
			return row, nil
		},
		func(_ Options, ws []workload.Workload, rows []Fig9Row, fails []*runerr.WorkloadError) (Result, error) {
			res := &Fig9Result{NoSpec: nospec, Rows: rows}
			res.SelRAWInt, res.SelRAWFP, res.SelRAWAll =
				meansByClass(ws, rows, func(r Fig9Row) float64 { return r.SelRAW })
			res.SelRAWRARInt, res.SelRAWRARFP, res.SelRAWRARAll =
				meansByClass(ws, rows, func(r Fig9Row) float64 { return r.SelRAWRAR })
			// Normalized execution times of the RAW+RAR selective mechanism.
			times := make([]float64, len(rows))
			for i, r := range rows {
				times[i] = 1 / (1 + r.SelRAWRAR)
			}
			res.HMSelective = 1/stats.HarmonicMean(times) - 1
			return annotate(res, fails), nil
		})
}

func runFig9(opt Options) (Result, error) { return runCells(opt, timingCells(false)) }

func runFig10(opt Options) (Result, error) { return runCells(opt, timingCells(true)) }

// String renders the speedup bars.
func (r *Fig9Result) String() string {
	var sb strings.Builder
	if r.NoSpec {
		sb.WriteString("Figure 10: speedups without memory dependence speculation\n")
		t := stats.NewTable("prog", "RAW", "RAW+RAR", "base IPC", "RAW+RAR speedup")
		for _, row := range r.Rows {
			t.Row(row.Workload.Abbrev,
				stats.Pct(row.SelRAW), stats.Pct(row.SelRAWRAR),
				fmt.Sprintf("%.2f", row.IPCBase),
				stats.Bar(row.SelRAWRAR/0.30, 15))
		}
		sb.WriteString(t.String())
	} else {
		sb.WriteString("Figure 9: speedups with naive memory dependence speculation\n")
		t := stats.NewTable("prog", "Sel RAW", "Sel RAW+RAR", "Sq RAW", "Sq RAW+RAR", "base IPC", "Sel RAW+RAR speedup")
		for _, row := range r.Rows {
			t.Row(row.Workload.Abbrev,
				stats.Pct(row.SelRAW), stats.Pct(row.SelRAWRAR),
				stats.Pct(row.SqRAW), stats.Pct(row.SqRAWRAR),
				fmt.Sprintf("%.2f", row.IPCBase),
				stats.Bar(row.SelRAWRAR/0.30, 15))
		}
		sb.WriteString(t.String())
	}
	fmt.Fprintf(&sb, "means (selective): RAW INT %s FP %s ALL %s | RAW+RAR INT %s FP %s ALL %s | HM %s\n",
		stats.Pct(r.SelRAWInt), stats.Pct(r.SelRAWFP), stats.Pct(r.SelRAWAll),
		stats.Pct(r.SelRAWRARInt), stats.Pct(r.SelRAWRARFP), stats.Pct(r.SelRAWRARAll),
		stats.Pct(r.HMSelective))
	if r.NoSpec {
		sb.WriteString("paper: RAW+RAR 9.8% (INT), 6.1% (FP)\n")
	} else {
		sb.WriteString("paper: RAW 4.28%/3.20%, RAW+RAR 6.44%/4.66% (INT/FP, selective)\n")
	}
	return sb.String()
}
