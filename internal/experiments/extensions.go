package experiments

import (
	"context"
	"fmt"
	"strings"

	"rarpred/internal/cloak"
	"rarpred/internal/pipeline"
	"rarpred/internal/runerr"
	"rarpred/internal/stats"
	"rarpred/internal/trace"
	"rarpred/internal/vpred"
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

// ablMemSpecCells runs the three LSQ scheduling policies as concurrent
// independent simulations of each workload, replaying one shared
// instruction recording (runTimingConfigs). The no-speculation and
// naive columns are fig10's and fig9's base runs, which the suite
// scheduler simulates once for both experiments (simMemo).
var ablMemSpecCells = cells(
	func(ctx context.Context, opt Options, w workload.Workload) (MemSpecRow, error) {
		size := opt.size(workload.TimingSize)
		row := MemSpecRow{Workload: w}
		pols := []pipeline.MemSpecPolicy{pipeline.NoSpec, pipeline.NaiveSpec, pipeline.StoreSets}
		specs := make([]simSpec, len(pols))
		for i, pol := range pols {
			specs[i] = baseSpec(pol)
		}
		results, err := runTimingConfigs(ctx, opt, w, size, specs, func(i int, err error) error {
			return fmt.Errorf("%s/%s: %w", w.Name, pols[i], err)
		})
		if err != nil {
			return row, err
		}
		row.NoSpecIPC = results[0].IPC()
		row.NaiveIPC = results[1].IPC()
		row.NaiveViolations = results[1].MemViolations
		row.StoreSetsIPC = results[2].IPC()
		row.StoreSetViolations = results[2].MemViolations
		return row, nil
	},
	func(_ Options, _ []workload.Workload, rows []MemSpecRow, fails []*runerr.WorkloadError) (Result, error) {
		return annotate(&MemSpecResult{Rows: rows}, fails), nil
	})

func runAblMemSpec(opt Options) (Result, error) { return runCells(opt, ablMemSpecCells) }

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

// ablRecoveryCells runs the base processor and the three recovery
// policies as four concurrent independent simulations replaying one
// shared instruction recording (runTimingConfigs). All but the oracle
// run are fig9's base, selective RAW+RAR and squash RAW+RAR runs, which
// the suite scheduler simulates once for both experiments (simMemo).
var ablRecoveryCells = cells(
	func(ctx context.Context, opt Options, w workload.Workload) (RecoveryRow, error) {
		size := opt.size(workload.TimingSize)
		row := RecoveryRow{Workload: w}
		specs := []simSpec{baseSpec(pipeline.NaiveSpec)}
		for _, rec := range []pipeline.RecoveryPolicy{pipeline.Selective, pipeline.Squash, pipeline.Oracle} {
			specs = append(specs, cloakSpec(cloak.ModeRAWRAR, rec, pipeline.NaiveSpec))
		}
		results, err := runTimingConfigs(ctx, opt, w, size, specs, func(_ int, err error) error {
			return err
		})
		if err != nil {
			return row, err
		}
		base := results[0]
		row.Selective = speedup(base.Cycles, results[1].Cycles)
		row.Squash = speedup(base.Cycles, results[2].Cycles)
		row.Oracle = speedup(base.Cycles, results[3].Cycles)
		row.Skipped = results[3].SpecSkipped
		return row, nil
	},
	func(_ Options, _ []workload.Workload, rows []RecoveryRow, fails []*runerr.WorkloadError) (Result, error) {
		return annotate(&RecoveryResult{Rows: rows}, fails), nil
	})

func runAblRecovery(opt Options) (Result, error) { return runCells(opt, ablRecoveryCells) }

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

// synergyCells stays single-sink: the cloaking engine and value
// predictor classify each load together.
var synergyCells = tracedCells(workload.ReferenceSize,
	func(_ Options, w workload.Workload, tr *trace.Stream) (SynergyRow, error) {
		engine := cloak.New(table52Config())
		vp := vpred.NewLastValue(vpred.DefaultEntries)
		var loads, cCloak, cVP, cHybrid uint64
		tr.Replay(trace.SinkFuncs{
			OnLoad: func(pc, addr, value uint32) {
				loads++
				out := engine.Load(pc, addr, value)
				_, vpCorrect := vp.Access(pc, value)
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
			},
			OnStore: func(pc, addr, value uint32) { engine.Store(pc, addr, value) },
		})
		return SynergyRow{
			Workload: w,
			Cloak:    stats.Ratio(cCloak, loads),
			VP:       stats.Ratio(cVP, loads),
			Hybrid:   stats.Ratio(cHybrid, loads),
		}, nil
	},
	func(_ Options, ws []workload.Workload, rows []SynergyRow, fails []*runerr.WorkloadError) (Result, error) {
		res := &SynergyResult{Rows: rows}
		_, _, res.CloakMean = meansByClass(ws, rows, func(r SynergyRow) float64 { return r.Cloak })
		_, _, res.VPMean = meansByClass(ws, rows, func(r SynergyRow) float64 { return r.VP })
		_, _, res.HybridMean = meansByClass(ws, rows, func(r SynergyRow) float64 { return r.Hybrid })
		return annotate(res, fails), nil
	})

func runSynergy(opt Options) (Result, error) { return runCells(opt, synergyCells) }

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

// ablProfileCells stays two-pass sequential: pass 2's software engine
// needs the profile that pass 1 collects.
var ablProfileCells = tracedCells(workload.ReferenceSize,
	func(_ Options, w workload.Workload, tr *trace.Stream) (ProfileRow, error) {
		// Pass 1: profile (and measure hardware coverage on the same
		// stream).
		collector := cloak.NewCollector(128)
		hw := cloak.New(cloak.DefaultConfig())
		tr.Replay(trace.SinkFuncs{
			OnLoad: func(pc, addr, value uint32) {
				collector.Load(pc, addr)
				hw.Load(pc, addr, value)
			},
			OnStore: func(pc, addr, value uint32) {
				collector.Store(pc, addr)
				hw.Store(pc, addr, value)
			},
		})
		// Pass 2: replay the same stream under the software-guided engine
		// (the program is deterministic, so a second execution would
		// produce the identical reference stream anyway).
		profile := collector.Profile()
		sw := cloak.NewStaticEngine(cloak.DefaultConfig(), profile, profileMinCount)
		tr.Replay(trace.SinkFuncs{
			OnLoad:  func(pc, addr, value uint32) { sw.Load(pc, addr, value) },
			OnStore: func(pc, addr, value uint32) { sw.Store(pc, addr, value) },
		})
		hwStats, swStats := hw.Stats(), sw.Stats()
		return ProfileRow{
			Workload: w,
			Hardware: stats.Ratio(hwStats.Covered(), hwStats.Loads),
			Software: stats.Ratio(swStats.Covered(), swStats.Loads),
			Pairs:    len(profile.Pairs(profileMinCount)),
		}, nil
	},
	func(_ Options, _ []workload.Workload, rows []ProfileRow, fails []*runerr.WorkloadError) (Result, error) {
		return annotate(&ProfileResult{Rows: rows}, fails), nil
	})

func runAblProfile(opt Options) (Result, error) { return runCells(opt, ablProfileCells) }

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
