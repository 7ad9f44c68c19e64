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
		ID: "table52",
		Title: "Table 5.1 (second): loads correct via cloaking/bypassing " +
			"but not value prediction, and vice versa (16K last-value " +
			"predictor, 16K DPNT, 128 DDT, 2K SF)",
		Cells: table52Cells,
	})
}

// Table52Row is one workload's cloaking-vs-value-prediction overlap. All
// fields are fractions over all executed loads.
type Table52Row struct {
	Workload workload.Workload

	// CloakOnlyRAW/RAR: correct via cloaking (attributed to the producer
	// kind) and not via the last-value predictor.
	CloakOnlyRAW float64
	CloakOnlyRAR float64

	// VPOnly: correct via the value predictor and not via cloaking.
	VPOnly float64
}

// CloakOnlyTotal is the total cloaking-not-VP fraction.
func (r Table52Row) CloakOnlyTotal() float64 { return r.CloakOnlyRAW + r.CloakOnlyRAR }

// Table52Result reproduces the second Table 5.1 (Section 5.5).
type Table52Result struct {
	Rows []Table52Row
}

// table52Config is the Section 5.5 configuration: 16K DPNT, 128-entry
// DDT, 2K synonym file. The paper assumes fully-associative structures;
// this model uses high associativity (4-way) at the same capacities.
func table52Config() cloak.Config {
	return cloak.Config{
		DDTCapacity: 128,
		DPNTSets:    4096,
		DPNTWays:    4,
		SFSets:      512,
		SFWays:      4,
		Mode:        cloak.ModeRAWRAR,
		Confidence:  cloak.Adaptive2Bit,
		Merge:       cloak.MergeIncremental,
	}
}

// table52Cells classifies the overlap from each load's pair of the
// table52Config engine's outcome and the last-value predictor's
// verdict, which the pass computes once for table52 and synergy.
var table52Cells = tracedCells(
	func(p *pass) func() Table52Row {
		var cloakOnlyRAW, cloakOnlyRAR, vpOnly uint64
		p.onValueLoad(func(out cloak.LoadOutcome, vpCorrect bool) {
			cloakCorrect := out.Used && out.Correct
			switch {
			case cloakCorrect && !vpCorrect:
				if out.Kind == cloak.DepRAR {
					cloakOnlyRAR++
				} else {
					cloakOnlyRAW++
				}
			case vpCorrect && !cloakCorrect:
				vpOnly++
			}
		})
		return func() Table52Row {
			loads := p.tr.Loads()
			return Table52Row{
				Workload:     p.w,
				CloakOnlyRAW: stats.Ratio(cloakOnlyRAW, loads),
				CloakOnlyRAR: stats.Ratio(cloakOnlyRAR, loads),
				VPOnly:       stats.Ratio(vpOnly, loads),
			}
		}
	},
	func(_ []workload.Workload, rows []Table52Row) Result {
		return &Table52Result{Rows: rows}
	})

// String renders the paper's column layout: Cloaking/Bypassing RAW, RAR,
// Total, then VP.
func (r *Table52Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 5.1 (Section 5.5): correct via cloaking/bypassing and " +
		"not via a last-value predictor (and vice versa)\n")
	t := stats.NewTable("prog", "RAW", "RAR", "Total", "VP")
	prevClass := workload.Class(255)
	for _, row := range r.Rows {
		if row.Workload.Class != prevClass {
			if prevClass != 255 {
				t.Rule()
			}
			prevClass = row.Workload.Class
		}
		t.Row(row.Workload.Abbrev,
			stats.Pct2(row.CloakOnlyRAW), stats.Pct2(row.CloakOnlyRAR),
			stats.Pct2(row.CloakOnlyTotal()), stats.Pct2(row.VPOnly))
	}
	sb.WriteString(t.String())
	winners := 0
	for _, row := range r.Rows {
		if row.CloakOnlyTotal() > row.VPOnly {
			winners++
		}
	}
	fmt.Fprintf(&sb, "cloaking-only exceeds VP-only for %d of %d programs\n",
		winners, len(r.Rows))
	return sb.String()
}
