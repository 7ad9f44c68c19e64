package experiments

import (
	"fmt"
	"strings"

	"rarpred/internal/stats"
	"rarpred/internal/workload"
)

func init() {
	register(Experiment{
		ID: "ablwindow",
		Title: "Extension: address-window sweep for RAR detection " +
			"(generalising Figure 2's infinite vs 4K comparison)",
		Cells: ablWindowCells,
	})
}

// WindowSizes is the sweep; 0 is the infinite window.
var WindowSizes = []int{64, 256, 1024, 4096, 16384, 0}

// WindowRow holds, per window size, the fraction of loads that are RAR
// sinks and their locality(1).
type WindowRow struct {
	Workload workload.Workload
	// SinkFrac[i] is sink loads / all loads under WindowSizes[i].
	SinkFrac []float64
	// Locality1[i] is memory-dependence-locality(1) under WindowSizes[i].
	Locality1 []float64
}

// WindowResult is the ablwindow outcome.
type WindowResult struct {
	Rows []WindowRow
}

// ablWindowCells reads every window size from the pass's window sweep:
// one DDT sweep detects at all sizes, and each window keeps its own sink
// histories.
var ablWindowCells = tracedCells(
	func(p *pass) func() WindowRow {
		l := p.windowSweep()
		return func() WindowRow {
			loads := p.tr.Loads()
			row := WindowRow{Workload: p.w}
			for i := range WindowSizes {
				row.SinkFrac = append(row.SinkFrac, stats.Ratio(l.SinkLoads(i), loads))
				row.Locality1 = append(row.Locality1, l.Locality(i, 1))
			}
			return row
		}
	},
	func(_ []workload.Workload, rows []WindowRow) Result {
		return &WindowResult{Rows: rows}
	})

// String renders the sweep: sinks detected and their regularity per
// window size.
func (r *WindowResult) String() string {
	var sb strings.Builder
	sb.WriteString("Extension: RAR detection vs address-window size\n")
	header := []string{"prog"}
	for _, ws := range WindowSizes {
		name := "inf"
		if ws != 0 {
			name = fmt.Sprint(ws)
		}
		header = append(header, name+" sinks", name+" loc1")
	}
	t := stats.NewTable(header...)
	for _, row := range r.Rows {
		cells := []any{row.Workload.Abbrev}
		for i := range WindowSizes {
			cells = append(cells, stats.Pct(row.SinkFrac[i]), stats.Pct(row.Locality1[i]))
		}
		t.Row(cells...)
	}
	sb.WriteString(t.String())
	sb.WriteString("small windows see fewer, nearer dependences — and the " +
		"paper's observation that shorter dependences are more regular " +
		"shows as locality rising when the window shrinks.\n")
	return sb.String()
}
