package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rarpred/internal/metrics"
)

// TestHTTPMonServesMetricsAndPprof drives the monitor server directly:
// /metrics returns a decodable registry snapshot containing the shared
// instruments, the pprof index answers, and shutdown returns cleanly.
func TestHTTPMonServesMetricsAndPprof(t *testing.T) {
	var errw strings.Builder
	shutdown, err := startHTTPMon("127.0.0.1:0", &errw)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	// The announce line is the documented way to learn the bound port.
	line := errw.String()
	start := strings.Index(line, "http://")
	if start < 0 {
		t.Fatalf("no address announced: %q", line)
	}
	base := strings.TrimSpace(line[start:])
	base = strings.TrimSuffix(base, "/metrics")

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	// The trace cache registers on the default registry at package init,
	// so its instruments must be visible even before any run.
	if _, ok := snap.Counters["trace.cache.hits"]; !ok {
		t.Errorf("snapshot lacks trace.cache.hits; counters: %v", snap.Counters)
	}
	if _, ok := snap.Gauges["trace.cache.entries"]; !ok {
		t.Errorf("snapshot lacks trace.cache.entries; gauges: %v", snap.Gauges)
	}

	pp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", pp.StatusCode)
	}
}

// TestBenchJSONMetricsConsistent: schema v5 embeds the registry
// snapshot, and because the legacy trace_cache section and the snapshot
// read the same atomics, the two views in one report must agree
// exactly.
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
		SchemaVersion int `json:"schema_version"`
		TraceCache    struct {
			Hits               uint64 `json:"hits"`
			Misses             uint64 `json:"misses"`
			TraceRawBytes      int64  `json:"trace_raw_bytes"`
			TraceResidentBytes int64  `json:"trace_resident_bytes"`
		} `json:"trace_cache"`
		Metrics metrics.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != benchSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", rep.SchemaVersion, benchSchemaVersion)
	}
	for name, want := range map[string]uint64{
		"trace.cache.hits":   rep.TraceCache.Hits,
		"trace.cache.misses": rep.TraceCache.Misses,
	} {
		if got := rep.Metrics.Counters[name]; got != want {
			t.Errorf("metrics counter %s = %d, legacy section says %d", name, got, want)
		}
	}
	if got := rep.Metrics.Gauges["trace.cache.bytes"]; got != rep.TraceCache.TraceResidentBytes {
		t.Errorf("metrics gauge trace.cache.bytes = %d, legacy section says %d",
			got, rep.TraceCache.TraceResidentBytes)
	}
	if got := rep.Metrics.Gauges["trace.cache.raw_bytes"]; got != rep.TraceCache.TraceRawBytes {
		t.Errorf("metrics gauge trace.cache.raw_bytes = %d, legacy section says %d",
			got, rep.TraceCache.TraceRawBytes)
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
