package experiments

import (
	"fmt"
	"strings"

	"rarpred/internal/funcsim"
	"rarpred/internal/stats"
	"rarpred/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "table51",
		Title: "Table 5.1: benchmark execution characteristics (IC, loads, stores)",
		Cells: table51Cells,
	})
}

// Table51Row is one benchmark's dynamic execution characteristics.
type Table51Row struct {
	Workload workload.Workload
	Counts   funcsim.Counts
}

// Table51Result reproduces Table 5.1 for the analog suite.
type Table51Result struct {
	Rows []Table51Row
}

// table51Cells registers nothing on the pass: its row is the recorded
// execution profile, so a pass for table51 alone decodes nothing.
var table51Cells = tracedCells(
	func(p *pass) func() Table51Row {
		return func() Table51Row { return Table51Row{Workload: p.w, Counts: p.tr.Counts} }
	},
	func(_ []workload.Workload, rows []Table51Row) Result {
		return &Table51Result{Rows: rows}
	})

// String renders the table in the paper's layout (instruction counts in
// millions; this reproduction runs smaller full programs instead of
// sampled 100M-instruction runs).
func (r *Table51Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 5.1: Benchmark Execution Characteristics (analog suite)\n")
	t := stats.NewTable("Program", "Ab.", "IC(M)", "Loads", "Stores")
	prevClass := workload.Class(255)
	for _, row := range r.Rows {
		if row.Workload.Class != prevClass {
			if prevClass != 255 {
				t.Rule()
			}
			prevClass = row.Workload.Class
		}
		t.Row(
			row.Workload.Analog+" ("+row.Workload.Name+")",
			row.Workload.Abbrev,
			fmt.Sprintf("%.2f", float64(row.Counts.Insts)/1e6),
			stats.Pct(row.Counts.LoadFrac()),
			stats.Pct(row.Counts.StoreFrac()),
		)
	}
	sb.WriteString(t.String())
	return sb.String()
}
