package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSize is the workload size of the golden report test.
const goldenSize = 5

// goldenBench pairs a SPECint with a SPECfp analog.
var goldenBench = []string{"go", "tom"}

// goldenRun runs `-exp all` over the golden subset with extra flags and
// returns its stdout with the timing footers normalized, and its
// stderr.
func goldenRun(t *testing.T, extra ...string) (stdout, stderr string) {
	t.Helper()
	args := append([]string{"-exp", "all", "-size", fmt.Sprint(goldenSize), "-bench", strings.Join(goldenBench, ",")}, extra...)
	code, out, errw := runCLI(args...)
	if code != 0 {
		t.Fatalf("%v: exit %d; stderr:\n%s", extra, code, errw)
	}
	return normalizeTiming(out), errw
}

// TestGoldenReport is the report contract: `-exp all` over an INT+FP
// subset prints byte-identical stdout, timing footers aside, in every
// mode below — parallelism, oracles, a cold, warm or partly populated
// store, and live monitoring. One -p 1 run is the baseline; each row
// reruns the command in one mode and checks the mode's own effects.
func TestGoldenReport(t *testing.T) {
	want, _ := goldenRun(t, "-p", "1")
	if !strings.Contains(want, "== fig9:") {
		t.Fatalf("baseline is not a clean full sweep:\n%s", want)
	}
	streams := 2 * len(goldenBench) // one memory and one instruction recording per workload

	rows := []struct {
		name string
		// run performs the row's run (plus any setup it needs) in a
		// fresh directory and returns its normalized stdout.
		run func(t *testing.T, dir string) string
	}{
		{"parallelism-4", func(t *testing.T, dir string) string {
			out, _ := goldenRun(t, "-parallelism", "4")
			return out
		}},
		// -check arms the oracles and invariant sweeps, and a mismatch
		// in its shadow run exits non-zero inside goldenRun.
		{"check-p1", func(t *testing.T, dir string) string {
			out, _ := goldenRun(t, "-check", "-p", "1")
			return out
		}},
		{"check-p4", func(t *testing.T, dir string) string {
			out, _ := goldenRun(t, "-check", "-p", "4")
			return out
		}},
		// The store writes the recordings' packed chunks, so it writes
		// fewer bytes than the recordings hold raw.
		{"store-cold", func(t *testing.T, dir string) string {
			bench := filepath.Join(dir, "b.json")
			out, _ := goldenRun(t, "-store", dir, "-benchjson", bench)
			m := readBench(t, bench)
			if benchStoreField(t, m, "disk_misses") == 0 {
				t.Errorf("cold run found its recordings on disk: %v", m["store"])
			}
			if written, raw := benchStoreField(t, m, "bytes_written"), benchStoreField(t, m, "raw_bytes_written"); written == 0 || written >= raw {
				t.Errorf("store wrote %v bytes for %v raw bytes of recordings, want fewer but some", written, raw)
			}
			if v := m["schema_version"].(float64); v != 12 {
				t.Errorf("benchjson schema_version = %v, want 12", v)
			}
			return out
		}},
		{"store-warm", func(t *testing.T, dir string) string {
			goldenRun(t, "-store", dir)
			bench := filepath.Join(dir, "b.json")
			out, _ := goldenRun(t, "-store", dir, "-benchjson", bench)
			m := readBench(t, bench)
			if got := benchStoreField(t, m, "disk_hits"); got != float64(streams) {
				t.Errorf("warm run read %v streams from disk, want %d", got, streams)
			}
			if got := benchStoreField(t, m, "disk_misses"); got != 0 {
				t.Errorf("warm run missed %v streams on disk, want none", got)
			}
			return out
		}},
		// An interrupted run leaves the recordings it published and, if
		// it was killed mid-save, a temp file. Rerunning the command
		// loads the one and never reads the other.
		{"store-partial", func(t *testing.T, dir string) string {
			if code, _, errw := runCLI("-exp", "fig2", "-size", fmt.Sprint(goldenSize), "-bench", "go", "-store", dir); code != 0 {
				t.Fatalf("populating run exit %d: %s", code, errw)
			}
			art := artifactPath(t, dir, recordingKey(t, "go", goldenSize, false))
			data, err := os.ReadFile(art)
			if err != nil {
				t.Fatal(err)
			}
			// A save publishes through traces/tmp-<artifact>-<random>, so
			// a kill mid-save leaves a torn file named after an artifact
			// that was never published: tom's memory recording here.
			unpublished := strings.Replace(filepath.Base(art), wname(t, "go"), wname(t, "tom"), 1)
			stray := filepath.Join(dir, "traces", "tmp-"+unpublished+"-2718281828")
			if err := os.WriteFile(stray, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			bench := filepath.Join(dir, "b.json")
			out, _ := goldenRun(t, "-store", dir, "-benchjson", bench)
			m := readBench(t, bench)
			hits, misses := benchStoreField(t, m, "disk_hits"), benchStoreField(t, m, "disk_misses")
			if hits != 1 || misses != float64(streams-1) {
				t.Errorf("rerun read %v recordings from disk and missed %v, want 1 and %d", hits, misses, streams-1)
			}
			if got := benchStoreField(t, m, "quarantines"); got != 0 {
				t.Errorf("rerun quarantined %v artifacts, want none", got)
			}
			return out
		}},
		// Monitoring writes only to stderr.
		{"monitored", func(t *testing.T, dir string) string {
			out, errw := goldenRun(t, "-progress")
			if !strings.Contains(errw, "| cells ") {
				t.Errorf("-progress produced no status line on stderr:\n%s", errw)
			}
			return out
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if got := row.run(t, t.TempDir()); got != want {
				t.Errorf("report differs from the -p 1 baseline:\n--- baseline ---\n%s--- %s ---\n%s", want, row.name, got)
			}
		})
	}
}
