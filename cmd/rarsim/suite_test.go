package main

import (
	"os"
	"strings"
	"testing"

	"rarpred/internal/experiments"
	"rarpred/internal/faultsim"
	"rarpred/internal/trace"
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

// TestSchedulerIsolatesPanickingCells: under the shared pool, a
// workload that panics on every recording attempt fails exactly its own
// (experiment × workload) cells — both experiments still render their
// other rows and annotate only the faulted workload, at any
// parallelism.
func TestSchedulerIsolatesPanickingCells(t *testing.T) {
	defer faultsim.Reset()
	faultsim.Inject(wname(t, "gcc"), faultsim.Fault{Kind: faultsim.Panic, Times: 100})

	code, out, errw := runCLI("-exp", "table51,fig2", "-keepgoing",
		"-size", "23", "-bench", "go,gcc", "-p", "4")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errw)
	}
	if n := strings.Count(out, "partial result"); n != 2 {
		t.Errorf("%d partial annotations, want 2 (gcc cell in each experiment):\n%s", n, out)
	}
	for _, id := range []string{"table51", "fig2"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("experiment %s missing from output:\n%s", id, out)
		}
	}
	// Every per-workload failure annotation must name the faulted
	// workload — the healthy cell shares the pool but not the blast
	// radius.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "!!   ") && !strings.Contains(line, wname(t, "gcc")) {
			t.Errorf("failure annotation for an unexpected workload: %q", line)
		}
	}
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
	for _, want := range []string{`"experiments"`, `"scheduler"`, `"trace_cache"`,
		`"utilization"`, `"cells"`, `"workload"`} {
		if !strings.Contains(data, want) {
			t.Errorf("bench report lacks %s:\n%s", want, data)
		}
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

func dropSize6(t *testing.T) {
	t.Helper()
	for _, ab := range []string{"go", "gcc"} {
		experiments.TraceCache().Drop(trace.Key{Workload: wname(t, ab), Size: 6, MaxInsts: defaultMaxInsts})
	}
}

// TestTraceStatsListsStreams: -tracestats itemizes every resident
// stream with raw and resident sizes. It uses size 6, which no other
// test uses, so the streams it lists are its own recordings.
func TestTraceStatsListsStreams(t *testing.T) {
	dropSize6(t)
	defer dropSize6(t)
	code, _, errw := runCLI("-exp", "fig2", "-size", "6", "-bench", "go,gcc", "-tracestats")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	for _, w := range []string{wname(t, "go"), wname(t, "gcc")} {
		if !strings.Contains(errw, w) {
			t.Errorf("tracestats missing stream %s:\n%s", w, errw)
		}
	}
	if !strings.Contains(errw, "MiB raw ->") {
		t.Errorf("tracestats missing per-stream raw/resident listing:\n%s", errw)
	}
}
