package experiments

import (
	"fmt"
	"strings"

	"rarpred/internal/cloak"
	"rarpred/internal/locality"
	"rarpred/internal/runerr"
	"rarpred/internal/stats"
	"rarpred/internal/workload"
)

func init() {
	register(Experiment{
		ID: "fig7a",
		Title: "Figure 7(a): address locality breakdown (RAW/RAR/no " +
			"dependence) vs cloaking coverage",
		Cells: fig7Cells(false),
	})
	register(Experiment{
		ID: "fig7b",
		Title: "Figure 7(b): value locality breakdown (RAW/RAR/no " +
			"dependence) vs cloaking coverage",
		Cells: fig7Cells(true),
	})
}

// Fig7Row correlates locality (address or value, per the experiment) with
// the dependence detected per load, alongside cloaking coverage. All
// fields are fractions over all executed loads.
type Fig7Row struct {
	Workload workload.Workload

	// Left bar: loads whose consecutive executions repeat the address
	// (fig7a) or value (fig7b), split by the dependence detected on the
	// repeating execution.
	LocalRAW  float64
	LocalRAR  float64
	LocalNone float64

	// Right bar: cloaking coverage split.
	CoverageRAW float64
	CoverageRAR float64
}

// Local is the total locality fraction.
func (r Fig7Row) Local() float64 { return r.LocalRAW + r.LocalRAR + r.LocalNone }

// Coverage is the total cloaking coverage.
func (r Fig7Row) Coverage() float64 { return r.CoverageRAW + r.CoverageRAR }

// Fig7Result reproduces Figure 7(a) or 7(b).
type Fig7Result struct {
	Value bool // false: address locality (7a); true: value locality (7b)
	Rows  []Fig7Row
}

// fig7Cells correlates each load's locality observation with the
// dependence the pass's default engine (the one fig6 and the ablations
// read) detected for that load, which an outcome listener receives as
// that engine walks each chunk, in recorded order.
func fig7Cells(value bool) CellRunner {
	return tracedCells(
		func(p *pass) func() Fig7Row {
			cfg := cloak.DefaultConfig()
			engine := p.bank.Engine(cfg)
			last := locality.NewLastMap()
			var localRAW, localRAR, localNone uint64
			p.bank.OnLoad(cfg, func(pc, addr, val uint32, out cloak.LoadOutcome) {
				word := addr
				if value {
					word = val
				}
				if last.Observe(pc, word) {
					switch out.Dep {
					case cloak.DepRAW:
						localRAW++
					case cloak.DepRAR:
						localRAR++
					default:
						localNone++
					}
				}
			})
			return func() Fig7Row {
				loads := p.tr.Loads()
				st := engine.Stats()
				return Fig7Row{
					Workload:    p.w,
					LocalRAW:    stats.Ratio(localRAW, loads),
					LocalRAR:    stats.Ratio(localRAR, loads),
					LocalNone:   stats.Ratio(localNone, loads),
					CoverageRAW: stats.Ratio(st.CorrectRAW, loads),
					CoverageRAR: stats.Ratio(st.CorrectRAR, loads),
				}
			}
		},
		func(_ Options, _ []workload.Workload, rows []Fig7Row, fails []*runerr.WorkloadError) (Result, error) {
			return annotate(&Fig7Result{Value: value, Rows: rows}, fails), nil
		})
}

func runFig7(opt Options, value bool) (Result, error) {
	return runCells(opt, fig7Cells(value))
}

// String renders left (locality breakdown) and right (coverage) bars.
func (r *Fig7Result) String() string {
	kind, fig := "Address", "7(a)"
	if r.Value {
		kind, fig = "Value", "7(b)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %s: %s locality breakdown vs cloaking coverage\n", fig, kind)
	t := stats.NewTable("prog",
		"loc RAW", "loc RAR", "loc none", "loc tot",
		"cov RAW", "cov RAR", "cov tot")
	for _, row := range r.Rows {
		t.Row(row.Workload.Abbrev,
			stats.Pct(row.LocalRAW), stats.Pct(row.LocalRAR), stats.Pct(row.LocalNone),
			stats.Pct(row.Local()),
			stats.Pct(row.CoverageRAW), stats.Pct(row.CoverageRAR), stats.Pct(row.Coverage()))
	}
	sb.WriteString(t.String())
	return sb.String()
}
