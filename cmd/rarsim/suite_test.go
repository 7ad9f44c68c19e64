package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

func readFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), err
}

// normalizeTiming strips the run-to-run wall-clock variation from a
// report while keeping the timing line (and the id in it) in place;
// timingLine itself lives in main.go, shared with the -check shadow
// comparison.
func normalizeTiming(out string) string {
	return timingLine.ReplaceAllString(out, "[$1]")
}

// TestBenchJSONWritten: -benchjson emits the machine-readable suite
// report with per-experiment cells and scheduler utilization.
func TestBenchJSONWritten(t *testing.T) {
	path := t.TempDir() + "/BENCH_suite.json"
	code, _, errw := runCLI("-exp", "table51,fig2", "-size", "3",
		"-bench", "go,gcc", "-benchjson", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiments"`, `"scheduler"`,
		`"utilization"`, `"cells"`, `"workload"`} {
		if !strings.Contains(data, want) {
			t.Errorf("bench report lacks %s:\n%s", want, data)
		}
	}
	if strings.Contains(data, `"trace_cache"`) {
		t.Errorf("bench report has the removed trace_cache section:\n%s", data)
	}
}

// TestBenchJSONDescribesMainRunUnderCheck: -check's shadow run runs a
// suite per experiment, and each suite resets the suite gauges, so
// -benchjson is written before it: its suite.cells_total counts the
// main run's cells (two experiments × two workloads), not the last
// shadow suite's.
func TestBenchJSONDescribesMainRunUnderCheck(t *testing.T) {
	path := t.TempDir() + "/BENCH_suite.json"
	code, _, errw := runCLI("-exp", "table51,fig2", "-size", "3",
		"-bench", "go,gcc", "-check", "-benchjson", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Metrics struct {
			Gauges map[string]int64 `json:"gauges"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Metrics.Gauges["suite.cells_total"]; got != 4 {
		t.Errorf("suite.cells_total = %d, want the main run's 4", got)
	}
}

// TestBenchJSONCellsSumToBusy: schema 8 splits each job's time over the
// cells it covers, so the cells' seconds sum to the scheduler's busy
// time, each experiment's cost_seconds sums its cells, and the cells
// that shared one of a workload's jobs are marked fused: the functional
// cells its pass, and the timing cells its timing job. Each
// experiment's report footer prints its cost_seconds.
func TestBenchJSONCellsSumToBusy(t *testing.T) {
	path := t.TempDir() + "/BENCH_suite.json"
	code, out, errw := runCLI("-exp", "table51,fig2,fig5,fig10,ablmemspec", "-size", "3",
		"-bench", "go,gcc", "-p", "2", "-benchjson", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		SchemaVersion int            `json:"schema_version"`
		Experiments   []benchExp     `json:"experiments"`
		Scheduler     benchScheduler `json:"scheduler"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != 12 {
		t.Errorf("schema_version = %d, want 12", rep.SchemaVersion)
	}
	var total float64
	for _, e := range rep.Experiments {
		var cost float64
		for _, c := range e.Cells {
			cost += c.Seconds
			if !c.Fused {
				t.Errorf("%s/%s: not fused", e.ID, c.Workload)
			}
		}
		if math.Abs(cost-e.CostSeconds) > 1e-6 {
			t.Errorf("%s: cost_seconds %g, cells sum to %g", e.ID, e.CostSeconds, cost)
		}
		if footer := fmt.Sprintf("[%s in %.1fs]", e.ID, e.CostSeconds); !strings.Contains(out, footer) {
			t.Errorf("report lacks the footer %s:\n%s", footer, out)
		}
		total += cost
	}
	if busy := rep.Scheduler.BusySeconds; busy <= 0 || math.Abs(total-busy) > 1e-6 {
		t.Errorf("cells sum to %g s, scheduler busy_seconds is %g", total, busy)
	}
}

// TestBenchJSONOmitsSupervisionWhenUnarmed: schema v6's optional
// supervise and store breaker sections are no longer emitted, even with
// -store, so the payload keeps the shape of a v5 run.
func TestBenchJSONOmitsSupervisionWhenUnarmed(t *testing.T) {
	path := t.TempDir() + "/BENCH_suite.json"
	code, _, errw := runCLI("-exp", "fig2", "-size", "14", "-bench", "go,gcc",
		"-store", t.TempDir(), "-benchjson", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, `"store"`) {
		t.Errorf("run with -store lacks the store section:\n%s", data)
	}
	for _, gone := range []string{`"supervise"`, `"breaker"`} {
		if strings.Contains(data, gone) {
			t.Errorf("bench report emitted the removed %s section:\n%s", gone, data)
		}
	}
}
