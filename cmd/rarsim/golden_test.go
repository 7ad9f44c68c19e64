package main

import (
	"encoding/binary"
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

// journalRecordEnds returns the byte offset just past each record of a
// run journal: its header is magic(4) version(2) reserved(2) fpLen(4)
// fingerprint crc(4), and each record is len(4) payload crc(4).
func journalRecordEnds(t *testing.T, data []byte) []int {
	t.Helper()
	off := 12 + int(binary.LittleEndian.Uint32(data[8:])) + 4
	var ends []int
	for off+4 <= len(data) {
		off += 4 + int(binary.LittleEndian.Uint32(data[off:])) + 4
		ends = append(ends, off)
	}
	if off != len(data) {
		t.Fatalf("journal of %d bytes does not end on a record boundary", len(data))
	}
	return ends
}

// TestGoldenReport is the report contract: `-exp all` over an INT+FP
// subset prints byte-identical stdout, timing footers aside, in every
// mode below — parallelism, oracles, a cold or warm store, a resume
// over a full or torn journal, and live monitoring. One -p 1 run is the
// baseline; each row reruns the command in one mode and checks the
// mode's own effects.
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
			if v := m["schema_version"].(float64); v != 11 {
				t.Errorf("benchjson schema_version = %v, want 11", v)
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
		{"resume-full", func(t *testing.T, dir string) string {
			goldenRun(t, "-store", dir)
			data, err := os.ReadFile(filepath.Join(dir, "journal.rarj"))
			if err != nil {
				t.Fatal(err)
			}
			cells := len(journalRecordEnds(t, data))
			bench := filepath.Join(dir, "b.json")
			out, errw := goldenRun(t, "-store", dir, "-resume", "-benchjson", bench)
			if !strings.Contains(errw, fmt.Sprintf("resuming: %d cell(s)", cells)) {
				t.Errorf("resume did not report %d journaled cells: %q", cells, errw)
			}
			if got := benchStoreField(t, readBench(t, bench), "resumed_cells"); got != float64(cells) {
				t.Errorf("resumed_cells = %v, want every cell (%d)", got, cells)
			}
			return out
		}},
		// A crash mid-append leaves a torn final record. Resume keeps
		// the records before it and re-runs the rest.
		{"resume-torn", func(t *testing.T, dir string) string {
			full := filepath.Join(dir, "full")
			goldenRun(t, "-p", "1", "-store", full)
			data, err := os.ReadFile(filepath.Join(full, "journal.rarj"))
			if err != nil {
				t.Fatal(err)
			}
			ends := journalRecordEnds(t, data)
			k := len(ends) / 2
			cut := ends[k-1] + (ends[k]-ends[k-1])/2 // part-way into record k+1
			torn := filepath.Join(dir, "torn")
			if err := os.MkdirAll(torn, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(torn, "journal.rarj"), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			bench := filepath.Join(dir, "b.json")
			out, errw := goldenRun(t, "-p", "1", "-store", torn, "-resume", "-benchjson", bench)
			if !strings.Contains(errw, fmt.Sprintf("resuming: %d cell(s)", k)) {
				t.Errorf("resume over a torn journal did not report %d of %d cells: %q", k, len(ends), errw)
			}
			if got := benchStoreField(t, readBench(t, bench), "resumed_cells"); got != float64(k) {
				t.Errorf("resumed_cells = %v, want %d of %d", got, k, len(ends))
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
