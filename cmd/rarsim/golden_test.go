package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rarpred/internal/experiments"
	"rarpred/internal/trace"
)

// goldenSize is the workload size of the golden report test; no other
// test uses it, so each row's recordings are its own.
const goldenSize = 5

// goldenBench pairs a SPECint with a SPECfp analog.
var goldenBench = []string{"go", "tom"}

// dropGolden empties the memory cache of the golden size's streams,
// both memory and instruction recordings, the state a fresh process
// starts in.
func dropGolden(t *testing.T) {
	t.Helper()
	for _, ab := range goldenBench {
		for _, timing := range []bool{false, true} {
			experiments.TraceCache().Drop(trace.Key{Workload: wname(t, ab), Size: goldenSize, MaxInsts: defaultMaxInsts, Timing: timing})
		}
	}
}

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
// mode below — parallelism, oracles, raw traces, a cold or warm store,
// a resume over a full or torn journal, and live monitoring. One -p 1
// run is the baseline; each row reruns the command in one mode from an
// empty memory cache and checks the mode's own effects.
func TestGoldenReport(t *testing.T) {
	dropGolden(t)
	want, _ := goldenRun(t, "-p", "1")
	if !strings.Contains(want, "== fig9:") || strings.Contains(want, "partial result") {
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
		// in its sequential shadow run exits non-zero inside goldenRun.
		{"check-p1", func(t *testing.T, dir string) string {
			out, _ := goldenRun(t, "-check", "-p", "1")
			return out
		}},
		{"check-p4", func(t *testing.T, dir string) string {
			out, _ := goldenRun(t, "-check", "-p", "4")
			return out
		}},
		{"compression-off", func(t *testing.T, dir string) string {
			defer trace.SetCompression(trace.SetCompression(false))
			out, _ := goldenRun(t, "-p", "4")
			for _, r := range experiments.TraceCache().Residents() {
				if r.Key.Size == goldenSize && r.Bytes < r.RawBytes {
					t.Errorf("%+v resident compressed (%d of %d raw bytes)", r.Key, r.Bytes, r.RawBytes)
				}
			}
			return out
		}},
		{"store-cold", func(t *testing.T, dir string) string {
			bench := filepath.Join(dir, "b.json")
			out, _ := goldenRun(t, "-store", dir, "-benchjson", bench)
			m := readBench(t, bench)
			if benchStoreField(t, m, "bytes_written") == 0 || benchStoreField(t, m, "disk_misses") == 0 {
				t.Errorf("cold run wrote nothing to the store: %v", m["store"])
			}
			if v := m["schema_version"].(float64); v != 7 {
				t.Errorf("benchjson schema_version = %v, want 7", v)
			}
			return out
		}},
		{"store-warm", func(t *testing.T, dir string) string {
			goldenRun(t, "-store", dir)
			dropGolden(t)
			bench := filepath.Join(dir, "b.json")
			out, _ := goldenRun(t, "-store", dir, "-benchjson", bench)
			if got := benchStoreField(t, readBench(t, bench), "disk_hits"); got < float64(streams) {
				t.Errorf("warm run read %v streams from disk, want >= %d", got, streams)
			}
			return out
		}},
		{"resume-full", func(t *testing.T, dir string) string {
			goldenRun(t, "-store", dir)
			dropGolden(t)
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
			dropGolden(t)
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
		// Monitoring writes only to stderr and the HTTP socket.
		{"monitored", func(t *testing.T, dir string) string {
			out, errw := goldenRun(t, "-progress", "-httpmon", "127.0.0.1:0")
			if !strings.Contains(errw, "monitoring on http://") {
				t.Errorf("-httpmon did not announce its address on stderr:\n%s", errw)
			}
			if !strings.Contains(errw, "| cells ") {
				t.Errorf("-progress produced no status line on stderr:\n%s", errw)
			}
			return out
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dropGolden(t)
			if got := row.run(t, t.TempDir()); got != want {
				t.Errorf("report differs from the -p 1 baseline:\n--- baseline ---\n%s--- %s ---\n%s", want, row.name, got)
			}
		})
	}
}
