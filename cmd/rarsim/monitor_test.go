package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rarpred/internal/metrics"
)

// TestBenchJSONMetricsConsistent: schema v5 embeds the registry
// snapshot, and the scheduler section and the snapshot's suite gauges
// describe one run, so the two views in one report must agree exactly.
// Since schema v9 neither carries the removed trace cache's books, and
// since v11 the snapshot has no worker-pool gauges (the scheduler
// section's workers is the pool size).
func TestBenchJSONMetricsConsistent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	code, _, errw := runCLI("-exp", "table51,fig2", "-size", "3",
		"-bench", "go,gcc", "-benchjson", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		SchemaVersion int              `json:"schema_version"`
		Scheduler     benchScheduler   `json:"scheduler"`
		TraceCache    *json.RawMessage `json:"trace_cache"`
		Metrics       metrics.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != benchSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", rep.SchemaVersion, benchSchemaVersion)
	}
	if got := rep.Metrics.Gauges["suite.cells_total"]; got != int64(rep.Scheduler.Cells) {
		t.Errorf("metrics gauge suite.cells_total = %d, scheduler section says %d cells", got, rep.Scheduler.Cells)
	}
	if rep.TraceCache != nil {
		t.Errorf("bench report has the removed trace_cache section: %s", *rep.TraceCache)
	}
	var names []string
	for name := range rep.Metrics.Counters {
		names = append(names, name)
	}
	for name := range rep.Metrics.Gauges {
		names = append(names, name)
	}
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "trace.cache."),
			name == "suite.queue_depth", name == "suite.workers", name == "suite.workers_busy":
			t.Errorf("metrics snapshot has the removed instrument %s", name)
		}
	}
	// The run simulated something, so the throughput counter moved and
	// the suite gauges retired every cell.
	if rep.Metrics.Counters["funcsim.insts_committed"] == 0 {
		t.Error("funcsim.insts_committed = 0 after a suite run")
	}
	if done, total := rep.Metrics.Gauges["suite.cells_done"], rep.Metrics.Gauges["suite.cells_total"]; done != total || total == 0 {
		t.Errorf("suite cells done/total = %d/%d, want equal and non-zero", done, total)
	}
	// Per-cell spans landed in the histogram family.
	h, ok := rep.Metrics.Histograms["spans_ns{cell}"]
	if !ok || h.Count == 0 {
		t.Errorf("spans_ns{cell} missing or empty: %+v", h)
	}
}

// TestProgressStopsBeforeShadowRun: -progress monitors the main run
// alone. -check's shadow run runs a suite per experiment, and each suite
// resets the suite gauges, so the monitor closes, drawing its final
// status, before the shadow run starts: the last cells field on stderr
// is the main run's 4/4 (two experiments × two workloads), not the last
// shadow suite's 2/2.
func TestProgressStopsBeforeShadowRun(t *testing.T) {
	code, _, errw := runCLI("-exp", "table51,fig2", "-size", "3",
		"-bench", "go,gcc", "-check", "-progress")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw)
	}
	fields := regexp.MustCompile(`cells (\d+/\d+)`).FindAllStringSubmatch(errw, -1)
	if len(fields) == 0 {
		t.Fatalf("no cells field on stderr:\n%s", errw)
	}
	if last := fields[len(fields)-1][1]; last != "4/4" {
		t.Errorf("last cells field %s, want the main run's 4/4; stderr:\n%s", last, errw)
	}
}

// TestProgressETA: the -progress ETA scales elapsed time by the cells
// not yet done.
func TestProgressETA(t *testing.T) {
	now := time.Now()
	m := &progressMonitor{start: now.Add(-10 * time.Second), cellsTotal: &metrics.Gauge{}, cellsDone: &metrics.Gauge{}}
	m.cellsTotal.Set(36)
	if _, ok := m.eta(now); ok {
		t.Error("ETA with no cell done, want no estimate")
	}
	m.cellsDone.Set(18)
	if eta, ok := m.eta(now); !ok || eta != 10*time.Second {
		t.Errorf("ETA with half the cells done after 10s = %v, %v; want 10s", eta, ok)
	}
	m.cellsDone.Set(36)
	if eta, ok := m.eta(now); !ok || eta != 0 {
		t.Errorf("ETA with every cell done = %v, %v; want 0", eta, ok)
	}
}
