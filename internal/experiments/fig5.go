package experiments

import (
	"fmt"
	"math/bits"
	"strings"

	"rarpred/internal/cloak"
	"rarpred/internal/stats"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

func init() {
	register(Experiment{
		ID: "fig5",
		Title: "Figure 5: fraction of loads with RAW or RAR dependences " +
			"as a function of DDT size (32..2K)",
		Cells: fig5Cells,
	})
}

// Fig5Sizes are the DDT sizes swept by Figure 5 (power-of-two steps).
var Fig5Sizes = []int{32, 64, 128, 256, 512, 1024, 2048}

// Fig5Point is the detected-dependence split at one DDT size.
type Fig5Point struct {
	DDTSize int
	RAWFrac float64 // loads with a visible RAW dependence
	RARFrac float64 // loads with a visible RAR dependence
}

// Fig5Row holds one workload's sweep.
type Fig5Row struct {
	Workload workload.Workload
	Points   []Fig5Point
}

// Fig5Result reproduces Figure 5.
type Fig5Result struct {
	Rows []Fig5Row
}

// fig5Cells feeds the pass to a DDT sweep that answers all seven sizes
// of the combined table at once.
var fig5Cells = tracedCells(
	func(p *pass) func() Fig5Row {
		raw := make([]uint64, len(Fig5Sizes))
		rar := make([]uint64, len(Fig5Sizes))
		sweep := cloak.NewDDTSweep(Fig5Sizes...)
		p.sink(trace.SinkFuncs{
			OnLoad: func(pc, id, _ uint32) {
				rawAt, rarAt := sweep.Load(id, pc)
				tally(raw, rawAt)
				tally(rar, rarAt)
			},
			OnStore: func(pc, id, _ uint32) { sweep.Store(id, pc) },
		})
		return func() Fig5Row {
			loads := p.tr.Loads()
			row := Fig5Row{Workload: p.w}
			for i, s := range Fig5Sizes {
				row.Points = append(row.Points, Fig5Point{
					DDTSize: s,
					RAWFrac: stats.Ratio(raw[i], loads),
					RARFrac: stats.Ratio(rar[i], loads),
				})
			}
			return row
		}
	},
	func(_ []workload.Workload, rows []Fig5Row) Result {
		return &Fig5Result{Rows: rows}
	})

// tally adds one to counts[c] for every bit c set in mask.
func tally(counts []uint64, mask uint32) {
	for ; mask != 0; mask &= mask - 1 {
		counts[bits.TrailingZeros32(mask)]++
	}
}

// Point returns the sweep point for a DDT size.
func (r Fig5Row) Point(ddtSize int) (Fig5Point, bool) {
	for _, p := range r.Points {
		if p.DDTSize == ddtSize {
			return p, true
		}
	}
	return Fig5Point{}, false
}

// String renders one RAW/RAR/total triple per DDT size per program.
func (r *Fig5Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 5: loads with visible dependences vs DDT size\n")
	header := []string{"prog"}
	for _, s := range Fig5Sizes {
		header = append(header, fmt.Sprintf("%d RAW", s), fmt.Sprintf("%d RAR", s))
	}
	t := stats.NewTable(header...)
	for _, row := range r.Rows {
		cells := []any{row.Workload.Abbrev}
		for _, p := range row.Points {
			cells = append(cells, stats.Pct(p.RAWFrac), stats.Pct(p.RARFrac))
		}
		t.Row(cells...)
	}
	sb.WriteString(t.String())
	return sb.String()
}
