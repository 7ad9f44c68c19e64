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
		ID: "ablmerge",
		Title: "Ablation: synonym merge policy (incremental Chrysos/Emer " +
			"vs full associative vs never; Section 5.1 discussion)",
		Cells: ablMergeCells,
	})
	register(Experiment{
		ID: "ablsplit",
		Title: "Ablation: shared vs split DDT (the Section 5.6.2 eviction " +
			"anomaly)",
		Cells: ablSplitCells,
	})
	register(Experiment{
		ID:    "abldpnt",
		Title: "Ablation: DPNT capacity sweep (512 entries to infinite)",
		Cells: ablDPNTCells,
	})
}

// ablCell is coverage/misspeculation for one configuration.
type ablCell struct {
	Coverage float64
	Misp     float64
}

// AblationResult is a generic per-workload, per-variant accuracy table.
type AblationResult struct {
	Title    string
	Variants []string
	Rows     []struct {
		Workload workload.Workload
		Cells    []ablCell
	}
}

// variantCells builds a CellRunner whose cell reads one cloaking engine
// per variant (cfgs, index-aligned with variants) from the workload's
// pass; variants that agree on the DDT share one detector, and a
// variant another experiment also runs shares its engine.
func variantCells(title string, variants []string, cfgs []cloak.Config) CellRunner {
	type row = struct {
		Workload workload.Workload
		Cells    []ablCell
	}
	return tracedCells(
		func(p *pass) func() row {
			engines := make([]*cloak.Engine, len(cfgs))
			for i, cfg := range cfgs {
				engines[i] = p.bank.Engine(cfg)
			}
			return func() row {
				r := row{Workload: p.w, Cells: make([]ablCell, len(variants))}
				for i, eng := range engines {
					st := eng.Stats()
					r.Cells[i] = ablCell{
						Coverage: stats.Ratio(st.Covered(), st.Loads),
						Misp:     stats.Ratio(st.Mispredicted(), st.Loads),
					}
				}
				return r
			}
		},
		func(_ []workload.Workload, rows []row) Result {
			return &AblationResult{Title: title, Variants: variants, Rows: rows}
		})
}

// defaultVariants returns n copies of cloak.DefaultConfig, each edited
// by set with its index.
func defaultVariants(n int, set func(i int, cfg *cloak.Config)) []cloak.Config {
	cfgs := make([]cloak.Config, n)
	for i := range cfgs {
		cfgs[i] = cloak.DefaultConfig()
		set(i, &cfgs[i])
	}
	return cfgs
}

var ablMergeConfigs = defaultVariants(3, func(i int, cfg *cloak.Config) {
	cfg.Merge = []cloak.MergeKind{cloak.MergeIncremental, cloak.MergeFull, cloak.MergeNever}[i]
})

var ablMergeCells = variantCells("Synonym merge policy",
	[]string{"incremental", "full", "never"}, ablMergeConfigs)

var ablSplitConfigs = defaultVariants(2, func(i int, cfg *cloak.Config) { cfg.SplitDDT = i == 1 })

var ablSplitCells = variantCells("Shared vs split DDT",
	[]string{"shared 128", "split 128+128"}, ablSplitConfigs)

var ablDPNTConfigs = defaultVariants(4, func(i int, cfg *cloak.Config) {
	if size := []int{512, 2048, 8192, 0}[i]; size > 0 {
		cfg.DPNTSets = size / 2
		cfg.DPNTWays = 2
	}
})

var ablDPNTCells = variantCells("DPNT capacity",
	[]string{"512", "2K", "8K", "inf"}, ablDPNTConfigs)

// String renders coverage and misspeculation per variant.
func (r *AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: %s\n", r.Title)
	header := []string{"prog"}
	for _, v := range r.Variants {
		header = append(header, v+" cov", v+" misp")
	}
	t := stats.NewTable(header...)
	for _, row := range r.Rows {
		cells := []any{row.Workload.Abbrev}
		for _, c := range row.Cells {
			cells = append(cells, stats.Pct(c.Coverage), stats.Pct2(c.Misp))
		}
		t.Row(cells...)
	}
	sb.WriteString(t.String())
	// Suite means per variant.
	means := make([]float64, len(r.Variants))
	for _, row := range r.Rows {
		for i, c := range row.Cells {
			means[i] += c.Coverage
		}
	}
	sb.WriteString("mean coverage:")
	for i, v := range r.Variants {
		fmt.Fprintf(&sb, " %s %s", v, stats.Pct(means[i]/float64(len(r.Rows))))
	}
	sb.WriteByte('\n')
	return sb.String()
}
