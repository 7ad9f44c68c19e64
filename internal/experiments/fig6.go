package experiments

import (
	"fmt"
	"strings"

	"rarpred/internal/cloak"
	"rarpred/internal/stats"
	"rarpred/internal/workload"
)

func init() {
	register(Experiment{
		ID: "fig6",
		Title: "Figure 6: cloaking coverage and misspeculation, 1-bit vs " +
			"2-bit confidence, RAW/RAR breakdown (128-entry DDT, infinite DPNT)",
		Cells: fig6Cells,
	})
}

// Fig6Cell is one predictor's accuracy for one workload. All values are
// fractions over all executed loads.
type Fig6Cell struct {
	CoverageRAW float64
	CoverageRAR float64
	MispRAW     float64
	MispRAR     float64
}

// Coverage is the total fraction of loads with a correct speculative value.
func (c Fig6Cell) Coverage() float64 { return c.CoverageRAW + c.CoverageRAR }

// Misp is the total misspeculation rate.
func (c Fig6Cell) Misp() float64 { return c.MispRAW + c.MispRAR }

// Fig6Row holds one workload's accuracy under both confidence mechanisms.
type Fig6Row struct {
	Workload workload.Workload
	OneBit   Fig6Cell // non-adaptive upper bound
	TwoBit   Fig6Cell // adaptive automaton
}

// Fig6Result reproduces Figure 6.
type Fig6Result struct {
	Rows []Fig6Row
	// Class means of the adaptive predictor, as quoted in the paper's text.
	MispIntTwoBit, MispFPTwoBit, MispAllTwoBit float64
	CovIntTwoBit, CovFPTwoBit, CovAllTwoBit    float64
}

func cellFrom(st cloak.Stats) Fig6Cell {
	return Fig6Cell{
		CoverageRAW: stats.Ratio(st.CorrectRAW, st.Loads),
		CoverageRAR: stats.Ratio(st.CorrectRAR, st.Loads),
		MispRAW:     stats.Ratio(st.WrongRAW, st.Loads),
		MispRAR:     stats.Ratio(st.WrongRAR, st.Loads),
	}
}

// fig6Cells reads the pass's 1-bit and 2-bit engines, which differ only
// in confidence and so share one DDT.
var fig6Cells = tracedCells(
	func(p *pass) func() Fig6Row {
		cfg1 := cloak.DefaultConfig()
		cfg1.Confidence = cloak.NonAdaptive1Bit
		oneBit, twoBit := p.bank.Engine(cfg1), p.bank.Engine(cloak.DefaultConfig())
		return func() Fig6Row {
			return Fig6Row{
				Workload: p.w,
				OneBit:   cellFrom(oneBit.Stats()),
				TwoBit:   cellFrom(twoBit.Stats()),
			}
		}
	},
	func(ws []workload.Workload, rows []Fig6Row) Result {
		res := &Fig6Result{Rows: rows}
		res.MispIntTwoBit, res.MispFPTwoBit, res.MispAllTwoBit =
			meansByClass(ws, rows, func(r Fig6Row) float64 { return r.TwoBit.Misp() })
		res.CovIntTwoBit, res.CovFPTwoBit, res.CovAllTwoBit =
			meansByClass(ws, rows, func(r Fig6Row) float64 { return r.TwoBit.Coverage() })
		return res
	})

// String renders coverage (part a) and misspeculation (part b), one pair
// of bars (1-bit, 2-bit) per program, split RAW/RAR as in the paper.
func (r *Fig6Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 6(a): cloaking coverage (fractions over all loads)\n")
	ta := stats.NewTable("prog", "1b RAW", "1b RAR", "1b tot", "2b RAW", "2b RAR", "2b tot", "2b coverage")
	for _, row := range r.Rows {
		ta.Row(row.Workload.Abbrev,
			stats.Pct(row.OneBit.CoverageRAW), stats.Pct(row.OneBit.CoverageRAR),
			stats.Pct(row.OneBit.Coverage()),
			stats.Pct(row.TwoBit.CoverageRAW), stats.Pct(row.TwoBit.CoverageRAR),
			stats.Pct(row.TwoBit.Coverage()),
			stats.Bar(row.TwoBit.Coverage(), 16))
	}
	sb.WriteString(ta.String())
	sb.WriteString("\nFigure 6(b): misspeculation rates (fractions over all loads)\n")
	tb := stats.NewTable("prog", "1b RAW", "1b RAR", "1b tot", "2b RAW", "2b RAR", "2b tot")
	for _, row := range r.Rows {
		tb.Row(row.Workload.Abbrev,
			stats.Pct2(row.OneBit.MispRAW), stats.Pct2(row.OneBit.MispRAR),
			stats.Pct2(row.OneBit.Misp()),
			stats.Pct2(row.TwoBit.MispRAW), stats.Pct2(row.TwoBit.MispRAR),
			stats.Pct2(row.TwoBit.Misp()))
	}
	sb.WriteString(tb.String())
	fmt.Fprintf(&sb, "\nAdaptive (2-bit) means: coverage INT %s FP %s ALL %s; "+
		"misspeculation INT %s FP %s ALL %s\n",
		stats.Pct(r.CovIntTwoBit), stats.Pct(r.CovFPTwoBit), stats.Pct(r.CovAllTwoBit),
		stats.Pct2(r.MispIntTwoBit), stats.Pct2(r.MispFPTwoBit), stats.Pct2(r.MispAllTwoBit))
	return sb.String()
}
