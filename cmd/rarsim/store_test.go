package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rarpred/internal/faultsim"
	"rarpred/internal/store"
)

// The persistence tests drive run() in-process. The golden report test
// covers the store's cross-run and resume flows.

func readBench(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func benchStoreField(t *testing.T, m map[string]any, field string) float64 {
	t.Helper()
	st, ok := m["store"].(map[string]any)
	if !ok {
		t.Fatalf("benchjson has no store section: %v", m)
	}
	v, ok := st[field].(float64)
	if !ok {
		t.Fatalf("store section missing %s: %v", field, st)
	}
	return v
}

func TestResumeRequiresStore(t *testing.T) {
	code, _, errw := runCLI("-exp", "fig2", "-resume")
	if code != 2 || !strings.Contains(errw, "-resume requires -store") {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
}

// TestCorruptArtifactQuarantinedAndRerecorded: a damaged on-disk trace
// is detected by checksum, quarantined, and the suite completes by
// re-recording live — the stored corruption never reaches a result.
func TestCorruptArtifactQuarantinedAndRerecorded(t *testing.T) {
	dir := t.TempDir()
	code, ref, errw := runCLI("-exp", "fig2", "-size", "11", "-bench", "go", "-store", dir)
	if code != 0 {
		t.Fatalf("first run exit %d: %s", code, errw)
	}

	// Flip one bit in the middle of the stored artifact.
	arts, err := filepath.Glob(filepath.Join(dir, "traces", wname(t, "go")+"_*_mem.rart"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("artifact glob: %v, %v", arts, err)
	}
	data, err := os.ReadFile(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(arts[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	bench := filepath.Join(dir, "b.json")
	code, out, errw := runCLI("-exp", "fig2", "-size", "11", "-bench", "go",
		"-store", dir, "-benchjson", bench)
	if code != 0 {
		t.Fatalf("run over corrupt artifact exit %d: %s", code, errw)
	}
	if normalizeTiming(out) != normalizeTiming(ref) {
		t.Fatalf("re-recorded run differs from original:\n%s\nvs\n%s", out, ref)
	}
	if got := benchStoreField(t, readBench(t, bench), "quarantines"); got != 1 {
		t.Fatalf("quarantines = %v, want 1", got)
	}
	if _, err := os.Stat(arts[0] + ".quarantined"); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
}

// TestDiskFaultDuringStoreIsNonFatal: a memory artifact that can be
// neither read nor published costs durability, never the run. A
// non-empty directory at the artifact's name fails the load and the
// publishing rename, even as root; the job records instead, and the
// report is the one a run with a working store prints.
func TestDiskFaultDuringStoreIsNonFatal(t *testing.T) {
	args := []string{"-exp", "fig2", "-size", "21", "-bench", "go"}
	ok := t.TempDir()
	code, ref, errw := runCLI(append(args, "-store", ok)...)
	if code != 0 {
		t.Fatalf("run with a working store exit %d: %s", code, errw)
	}
	arts, err := filepath.Glob(filepath.Join(ok, "traces", wname(t, "go")+"_*_mem.rart"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("artifact glob: %v, %v", arts, err)
	}

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "traces", filepath.Base(arts[0]), "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	bench := filepath.Join(dir, "b.json")
	code, out, errw := runCLI(append(args, "-store", dir, "-benchjson", bench)...)
	if code != 0 {
		t.Fatalf("run with a blocked artifact exit %d: %s", code, errw)
	}
	if normalizeTiming(out) != normalizeTiming(ref) {
		t.Errorf("run with a blocked artifact differs:\n%s\nvs\n%s", out, ref)
	}
	m := readBench(t, bench)
	if benchStoreField(t, m, "save_errors") != 1 || benchStoreField(t, m, "load_errors") != 1 {
		t.Fatalf("store stats with a blocked artifact: %v", m["store"])
	}
}

// TestCorruptRecordingNeverStored: a recording that fails validation is
// never saved. After an injected corruption, the job re-records on the
// baseline interpreter and saves that, so the artifact on disk decodes
// and a second run loads it without quarantining anything.
func TestCorruptRecordingNeverStored(t *testing.T) {
	for _, c := range []struct {
		kind, exp string
		decode    func([]byte) error
	}{
		{"mem", "fig2", func(data []byte) error { _, err := store.DecodeStream(data); return err }},
		{"inst", "fig10", func(data []byte) error { _, err := store.DecodeIStream(data); return err }},
	} {
		t.Run(c.kind, func(t *testing.T) {
			defer faultsim.Reset()
			dir := t.TempDir()
			faultsim.Inject(wname(t, "go"), faultsim.Fault{Kind: faultsim.Corrupt, Times: 1})
			code, ref, errw := runCLI("-exp", c.exp, "-size", "3", "-bench", "go", "-store", dir)
			if code != 0 {
				t.Fatalf("faulted run exit %d: %s", code, errw)
			}
			faultsim.Reset()
			arts, err := filepath.Glob(filepath.Join(dir, "traces", wname(t, "go")+"_*_"+c.kind+".rart"))
			if err != nil || len(arts) != 1 {
				t.Fatalf("artifact glob: %v, %v", arts, err)
			}
			data, err := os.ReadFile(arts[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := c.decode(data); err != nil {
				t.Fatalf("stored artifact does not decode: %v", err)
			}

			bench := filepath.Join(dir, "b.json")
			code, out, errw := runCLI("-exp", c.exp, "-size", "3", "-bench", "go", "-store", dir, "-benchjson", bench)
			if code != 0 {
				t.Fatalf("second run exit %d: %s", code, errw)
			}
			if normalizeTiming(out) != normalizeTiming(ref) {
				t.Errorf("second run differs from the first:\n%s\nvs\n%s", out, ref)
			}
			m := readBench(t, bench)
			if got := benchStoreField(t, m, "quarantines"); got != 0 {
				t.Errorf("quarantines = %v, want 0", got)
			}
			if got := benchStoreField(t, m, "disk_hits"); got != 1 {
				t.Errorf("disk_hits = %v, want the stored recording loaded", got)
			}
		})
	}
}
