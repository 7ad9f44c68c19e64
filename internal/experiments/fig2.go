package experiments

import (
	"fmt"
	"slices"
	"strings"

	"rarpred/internal/locality"
	"rarpred/internal/stats"
	"rarpred/internal/workload"
)

func init() {
	register(Experiment{
		ID: "fig2",
		Title: "Figure 2: RAR memory dependence locality (n=1..4), " +
			"infinite and 4K-entry address windows",
		Cells: fig2Cells,
	})
}

// Fig2Window is the finite address-window size of Figure 2(b).
const Fig2Window = 4096

// Fig2Row holds one workload's locality CDF under both windows.
type Fig2Row struct {
	Workload workload.Workload
	// Infinite[i] is memory-dependence-locality(i+1) with an infinite
	// address window; Windowed is the 4K-entry window variant.
	Infinite [locality.MaxDepth]float64
	Windowed [locality.MaxDepth]float64
	// SinkLoads counts dynamic sink loads under each window.
	SinkInf, SinkWin uint64
}

// Fig2Result reproduces Figure 2.
type Fig2Result struct {
	Rows []Fig2Row
}

// fig2Cells reads both address windows from the pass's window sweep,
// which ablwindow shares: Fig2Window and the infinite window are two of
// WindowSizes.
var fig2Cells = tracedCells(
	func(p *pass) func() Fig2Row {
		win, inf := slices.Index(WindowSizes, Fig2Window), slices.Index(WindowSizes, 0)
		l := p.windowSweep()
		return func() Fig2Row {
			row := Fig2Row{Workload: p.w, SinkInf: l.SinkLoads(inf), SinkWin: l.SinkLoads(win)}
			for n := 1; n <= locality.MaxDepth; n++ {
				row.Infinite[n-1] = l.Locality(inf, n)
				row.Windowed[n-1] = l.Locality(win, n)
			}
			return row
		}
	},
	func(_ []workload.Workload, rows []Fig2Row) Result {
		return &Fig2Result{Rows: rows}
	})

// String renders both sub-figures as locality(1..4) columns.
func (r *Fig2Result) String() string {
	var sb strings.Builder
	render := func(title string, pick func(Fig2Row) [locality.MaxDepth]float64, sinks func(Fig2Row) uint64) {
		sb.WriteString(title + "\n")
		t := stats.NewTable("prog", "loc(1)", "loc(2)", "loc(3)", "loc(4)")
		for _, row := range r.Rows {
			if sinks(row) == 0 {
				// No RAR sinks at all (129.compress-like behaviour):
				// locality is undefined, not zero.
				t.Row(row.Workload.Abbrev, "-", "-", "-", "-")
				continue
			}
			l := pick(row)
			t.Row(row.Workload.Abbrev,
				stats.Pct(l[0]), stats.Pct(l[1]), stats.Pct(l[2]), stats.Pct(l[3]))
		}
		sb.WriteString(t.String())
	}
	render("Figure 2(a): RAR dependence locality, infinite address window",
		func(r Fig2Row) [locality.MaxDepth]float64 { return r.Infinite },
		func(r Fig2Row) uint64 { return r.SinkInf })
	sb.WriteByte('\n')
	render(fmt.Sprintf("Figure 2(b): RAR dependence locality, %d-entry address window", Fig2Window),
		func(r Fig2Row) [locality.MaxDepth]float64 { return r.Windowed },
		func(r Fig2Row) uint64 { return r.SinkWin })
	return sb.String()
}
