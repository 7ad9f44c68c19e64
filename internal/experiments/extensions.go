package experiments

import (
	"fmt"
	"strings"

	"rarpred/internal/cloak"
	"rarpred/internal/pipeline"
	"rarpred/internal/stats"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

func init() {
	register(Experiment{
		ID: "ablmemspec",
		Title: "Extension: base-processor memory dependence speculation " +
			"policies (no-speculation vs naive vs store sets [Chrysos/Emer])",
		Cells: ablMemSpecCells,
	})
	register(Experiment{
		ID: "ablrecovery",
		Title: "Extension: value-misspeculation recovery (selective vs " +
			"squash vs oracle; Section 5.6.1's equivalence claim)",
		Cells: ablRecoveryCells,
	})
	register(Experiment{
		ID: "synergy",
		Title: "Extension: cloaking/bypassing combined with last-value " +
			"prediction (the Section 5.5 'potential synergy')",
		Cells: synergyCells,
	})
}

// MemSpecRow is one workload's base performance under the three policies.
type MemSpecRow struct {
	Workload workload.Workload

	NoSpecIPC, NaiveIPC, StoreSetsIPC float64
	NaiveViolations                   uint64
	StoreSetViolations                uint64
}

// MemSpecResult compares LSQ scheduling policies on the base processor.
type MemSpecResult struct {
	Rows []MemSpecRow
}

// ablMemSpecCells times the base processor under the three LSQ
// scheduling policies on each workload's timing job (runSims). The
// no-speculation and naive columns are fig10's and fig9's base runs,
// which a suite's timing job simulates once for both experiments.
var ablMemSpecCells = simCells(
	[]simSpec{baseSpec(pipeline.NoSpec), baseSpec(pipeline.NaiveSpec), baseSpec(pipeline.StoreSets)},
	func(w workload.Workload, s simSpec, err error) error {
		return fmt.Errorf("%s/%s: %w", w.Name, s.memSpec, err)
	},
	func(w workload.Workload, results []pipeline.Result) MemSpecRow {
		return MemSpecRow{
			Workload:           w,
			NoSpecIPC:          results[0].IPC(),
			NaiveIPC:           results[1].IPC(),
			NaiveViolations:    results[1].MemViolations,
			StoreSetsIPC:       results[2].IPC(),
			StoreSetViolations: results[2].MemViolations,
		}
	},
	func(_ []workload.Workload, rows []MemSpecRow) Result {
		return &MemSpecResult{Rows: rows}
	})

// String renders IPCs and violation counts.
func (r *MemSpecResult) String() string {
	var sb strings.Builder
	sb.WriteString("Extension: memory dependence speculation policies (base processor)\n")
	t := stats.NewTable("prog", "nospec IPC", "naive IPC", "ssets IPC", "naive viol", "ssets viol")
	for _, row := range r.Rows {
		t.Row(row.Workload.Abbrev,
			fmt.Sprintf("%.2f", row.NoSpecIPC),
			fmt.Sprintf("%.2f", row.NaiveIPC),
			fmt.Sprintf("%.2f", row.StoreSetsIPC),
			row.NaiveViolations, row.StoreSetViolations)
	}
	sb.WriteString(t.String())
	sb.WriteString("store sets retain naive speculation's performance while " +
		"removing the violations naive speculation pays for.\n")
	return sb.String()
}

// RecoveryRow is one workload's RAW+RAR speedup under each recovery model.
type RecoveryRow struct {
	Workload                  workload.Workload
	Selective, Squash, Oracle float64 // speedups over the base processor
	Skipped                   uint64  // oracle-suppressed wrong values
}

// RecoveryResult compares recovery policies.
type RecoveryResult struct {
	Rows []RecoveryRow
}

// ablRecoveryCells times the base processor and the three recovery
// policies on each workload's timing job (runSims). All but the oracle
// run are fig9's base, selective RAW+RAR and squash RAW+RAR runs, which
// a suite's timing job simulates once for both experiments.
var ablRecoveryCells = simCells(
	[]simSpec{
		baseSpec(pipeline.NaiveSpec),
		cloakSpec(cloak.ModeRAWRAR, pipeline.Selective, pipeline.NaiveSpec),
		cloakSpec(cloak.ModeRAWRAR, pipeline.Squash, pipeline.NaiveSpec),
		cloakSpec(cloak.ModeRAWRAR, pipeline.Oracle, pipeline.NaiveSpec),
	},
	nil,
	func(w workload.Workload, results []pipeline.Result) RecoveryRow {
		base := results[0]
		return RecoveryRow{
			Workload:  w,
			Selective: speedup(base.Cycles, results[1].Cycles),
			Squash:    speedup(base.Cycles, results[2].Cycles),
			Oracle:    speedup(base.Cycles, results[3].Cycles),
			Skipped:   results[3].SpecSkipped,
		}
	},
	func(_ []workload.Workload, rows []RecoveryRow) Result {
		return &RecoveryResult{Rows: rows}
	})

// String renders the three speedup columns.
func (r *RecoveryResult) String() string {
	var sb strings.Builder
	sb.WriteString("Extension: value-misspeculation recovery models (RAW+RAR)\n")
	t := stats.NewTable("prog", "selective", "squash", "oracle", "suppressed")
	for _, row := range r.Rows {
		t.Row(row.Workload.Abbrev,
			stats.Pct(row.Selective), stats.Pct(row.Squash), stats.Pct(row.Oracle),
			row.Skipped)
	}
	sb.WriteString(t.String())
	sb.WriteString("Section 5.6.1's claim: selective invalidation performs like the oracle.\n")
	return sb.String()
}

// SynergyRow is one workload's coverage under cloaking, last-value
// prediction, and the hybrid of both (a load is covered if either
// mechanism supplies a correct value).
type SynergyRow struct {
	Workload workload.Workload
	Cloak    float64
	VP       float64
	Hybrid   float64
}

// SynergyResult quantifies the Section 5.5 "potential synergy".
type SynergyResult struct {
	Rows []SynergyRow
	// Means over the suite.
	CloakMean, VPMean, HybridMean float64
}

// synergyCells counts from the same per-load pair as table52: the
// table52Config engine's outcome and the last-value predictor's
// verdict, computed once per pass for both.
var synergyCells = tracedCells(
	func(p *pass) func() SynergyRow {
		var cCloak, cVP, cHybrid uint64
		p.onValueLoad(func(out cloak.LoadOutcome, vpCorrect bool) {
			cloakCorrect := out.Used && out.Correct
			if cloakCorrect {
				cCloak++
			}
			if vpCorrect {
				cVP++
			}
			if cloakCorrect || vpCorrect {
				cHybrid++
			}
		})
		return func() SynergyRow {
			loads := p.tr.Loads()
			return SynergyRow{
				Workload: p.w,
				Cloak:    stats.Ratio(cCloak, loads),
				VP:       stats.Ratio(cVP, loads),
				Hybrid:   stats.Ratio(cHybrid, loads),
			}
		}
	},
	func(ws []workload.Workload, rows []SynergyRow) Result {
		res := &SynergyResult{Rows: rows}
		_, _, res.CloakMean = meansByClass(ws, rows, func(r SynergyRow) float64 { return r.Cloak })
		_, _, res.VPMean = meansByClass(ws, rows, func(r SynergyRow) float64 { return r.VP })
		_, _, res.HybridMean = meansByClass(ws, rows, func(r SynergyRow) float64 { return r.Hybrid })
		return res
	})

// String renders per-program and mean coverage of each mechanism.
func (r *SynergyResult) String() string {
	var sb strings.Builder
	sb.WriteString("Extension: cloaking + last-value prediction hybrid coverage\n")
	t := stats.NewTable("prog", "cloaking", "VP", "hybrid")
	for _, row := range r.Rows {
		t.Row(row.Workload.Abbrev,
			stats.Pct(row.Cloak), stats.Pct(row.VP), stats.Pct(row.Hybrid))
	}
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "means: cloaking %s, VP %s, hybrid %s — the approaches are complementary\n",
		stats.Pct(r.CloakMean), stats.Pct(r.VPMean), stats.Pct(r.HybridMean))
	return sb.String()
}

func init() {
	register(Experiment{
		ID: "ablprofile",
		Title: "Extension: hardware-detected vs profile-guided (software) " +
			"cloaking (Reinman et al., the paper's related work)",
		Cells: ablProfileCells,
	})
}

// ProfileRow compares hardware and software-guided coverage.
type ProfileRow struct {
	Workload workload.Workload
	Hardware float64 // coverage with runtime DDT detection
	Software float64 // coverage with a preloaded DPNT, no DDT
	Pairs    int     // profiled dependence pairs above threshold
}

// ProfileResult is the ablprofile outcome.
type ProfileResult struct {
	Rows []ProfileRow
}

// profileMinCount drops one-off pairs, as a compiler would.
const profileMinCount = 4

// ablProfileCells takes pass 1 from the workload's pass: the hardware
// engine is the default engine, and the profile is every dependence the
// default engine's 128-entry DDT reports, the profile a
// cloak.NewCollector(128) would collect with a DDT of its own. Its
// software pass is the suite's one second replay of a stream: the
// static engine needs the profile pass 1 collects.
var ablProfileCells = tracedCells(
	func(p *pass) func() ProfileRow {
		hw := p.bank.Engine(cloak.DefaultConfig())
		profile := p.bank.Profile(cloak.DefaultConfig())
		return func() ProfileRow {
			// Pass 2: replay the same stream under the software-guided
			// engine (the program is deterministic, so a second execution
			// would produce the identical reference stream anyway).
			sw := cloak.NewStaticEngine(cloak.DefaultConfig(), profile, profileMinCount)
			p.tr.Replay(trace.SinkFuncs{
				OnLoad:  func(pc, addr, value uint32) { sw.Load(pc, addr, value) },
				OnStore: sw.Store,
			})
			countEngineLoads(sw)
			hwStats, swStats := hw.Stats(), sw.Stats()
			return ProfileRow{
				Workload: p.w,
				Hardware: stats.Ratio(hwStats.Covered(), hwStats.Loads),
				Software: stats.Ratio(swStats.Covered(), swStats.Loads),
				Pairs:    len(profile.Pairs(profileMinCount)),
			}
		}
	},
	func(_ []workload.Workload, rows []ProfileRow) Result {
		return &ProfileResult{Rows: rows}
	})

// String renders hardware vs software-guided coverage.
func (r *ProfileResult) String() string {
	var sb strings.Builder
	sb.WriteString("Extension: hardware vs profile-guided (software) cloaking coverage\n")
	t := stats.NewTable("prog", "hardware", "software", "pairs")
	for _, row := range r.Rows {
		t.Row(row.Workload.Abbrev,
			stats.Pct(row.Hardware), stats.Pct(row.Software), row.Pairs)
	}
	sb.WriteString(t.String())
	sb.WriteString("software-guided cloaking needs no DDT but is limited to " +
		"profiled pairs (and profiles can go stale across inputs).\n")
	return sb.String()
}
