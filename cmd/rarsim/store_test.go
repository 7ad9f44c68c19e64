package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rarpred/internal/store"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// The persistence tests drive run() in-process. The golden report test
// covers the store's cross-run flows: a cold, a warm and a partly
// populated store.

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
	art := artifactPath(t, dir, recordingKey(t, "go", 11, false))
	data, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(art, data, 0o644); err != nil {
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
	if _, err := os.Stat(art + ".quarantined"); err != nil {
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
	art := artifactPath(t, ok, recordingKey(t, "go", 21, false))

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "traces", filepath.Base(art), "blocker"), 0o755); err != nil {
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

// maxInsts is the instruction budget every recording runs under, part
// of its store key.
const maxInsts = 2_000_000_000

// recordingKey is the store key of the workload's memory recording, or
// its instruction recording with timing set, at size.
func recordingKey(t *testing.T, abbrev string, size int, timing bool) trace.Key {
	return trace.Key{Workload: wname(t, abbrev), Size: size, MaxInsts: maxInsts, Timing: timing}
}

// recording is a memory or an instruction recording.
type recording interface {
	trace.Cached
	Validate() error
}

// record records the memory or the instruction stream key names.
func record(t *testing.T, key trace.Key) recording {
	t.Helper()
	w, _ := workload.ByName(key.Workload)
	prog := w.Assemble(key.Size)
	var rec recording
	var err error
	if key.Timing {
		rec, err = trace.RecordIStream(prog, key.MaxInsts)
	} else {
		rec, err = trace.RecordStream(prog, key.MaxInsts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// poisonedStream is key's memory recording with event 7's value
// flipped: it passes validation, and only -check's oracle can tell.
func poisonedStream(t *testing.T, key trace.Key) *trace.Stream {
	t.Helper()
	correct := record(t, key).(*trace.Stream)
	bad := trace.NewStream()
	i := 0
	flip := func(kind trace.Kind) func(pc, addr, value uint32) {
		return func(pc, addr, value uint32) {
			if i == 7 {
				value ^= 1
			}
			bad.Append(kind, pc, addr, value)
			i++
		}
	}
	correct.Replay(trace.SinkFuncs{OnLoad: flip(trace.KindLoad), OnStore: flip(trace.KindStore)})
	bad.Counts = correct.Counts
	bad.Seal()
	if bad.Validate() != nil {
		t.Fatal("test setup: poisoned stream must pass validation")
	}
	return bad
}

// plant saves rec under key in the store at dir, as a run would.
func plant(t *testing.T, dir string, key trace.Key, rec trace.Cached) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Store(key, rec); err != nil {
		t.Fatal(err)
	}
}

// artifactPath returns the path of key's artifact in the store at dir.
func artifactPath(t *testing.T, dir string, key trace.Key) string {
	t.Helper()
	kind := "mem"
	if key.Timing {
		kind = "inst"
	}
	arts, err := filepath.Glob(filepath.Join(dir, "traces", key.Workload+"_*_"+kind+".rart"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("artifact glob: %v, %v", arts, err)
	}
	return arts[0]
}

// TestCorruptRecordingNeverStored: a stored recording that fails
// validation is never served, and the recording the job makes in its
// place is what the store keeps. An artifact whose execution profile
// counts one record more than it holds is planted in the store; the run
// exits 0 with the report of a run without a store, and the artifact on
// disk afterwards decodes and validates.
func TestCorruptRecordingNeverStored(t *testing.T) {
	for _, c := range []struct {
		kind, exp string
		timing    bool
	}{{"mem", "fig2", false}, {"inst", "fig10", true}} {
		t.Run(c.kind, func(t *testing.T) {
			args := []string{"-exp", c.exp, "-size", "3", "-bench", "go"}
			code, ref, errw := runCLI(args...)
			if code != 0 {
				t.Fatalf("run without a store exit %d: %s", code, errw)
			}
			dir := t.TempDir()
			key := recordingKey(t, "go", 3, c.timing)
			bad := record(t, key)
			switch r := bad.(type) {
			case *trace.Stream:
				r.Counts.Loads++
			case *trace.IStream:
				r.Counts.Insts++
			}
			if bad.Validate() == nil {
				t.Fatal("test setup: planted recording passes validation")
			}
			plant(t, dir, key, bad)

			code, out, errw := runCLI(append(args, "-store", dir)...)
			if code != 0 {
				t.Fatalf("run over a corrupt artifact exit %d: %s", code, errw)
			}
			if normalizeTiming(out) != normalizeTiming(ref) {
				t.Errorf("run over a corrupt artifact differs:\n%s\nvs\n%s", out, ref)
			}
			data, err := os.ReadFile(artifactPath(t, dir, key))
			if err != nil {
				t.Fatal(err)
			}
			var rec recording
			if c.timing {
				rec, err = store.DecodeIStream(data)
			} else {
				rec, err = store.DecodeStream(data)
			}
			if err != nil {
				t.Fatalf("stored artifact does not decode: %v", err)
			}
			if err := rec.Validate(); err != nil {
				t.Errorf("stored artifact fails validation: %v", err)
			}
		})
	}
}
