package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// goldenDigests is the committed SHA-256 of every workload's memory and
// instruction artifact at workload.TimingSize, one "name kind digest"
// line each.
const goldenDigests = "testdata/artifact_sha256.txt"

// TestArtifactBytesGolden pins the on-disk bytes: each workload's
// recordings must encode to exactly the artifacts the digests describe.
// The codec's per-column mode choice is part of the format, so an
// encoder change that moves one byte of one chunk fails here, naming
// the workload, the kind and the new digest.
func TestArtifactBytesGolden(t *testing.T) {
	want := readGoldenDigests(t)
	got := 0
	check := func(name, kind string, artifact []byte) {
		t.Helper()
		got++
		sum := sha256.Sum256(artifact)
		digest := hex.EncodeToString(sum[:])
		key := name + " " + kind
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s %s: no golden digest (new digest %s)", name, kind, digest)
		case w != digest:
			t.Errorf("%s %s: artifact bytes changed: digest %s, golden %s", name, kind, digest, w)
		}
	}
	for _, w := range workload.All() {
		s, err := trace.RecordStream(w.Assemble(workload.TimingSize), 0)
		if err != nil {
			t.Fatalf("%s: record memory stream: %v", w.Name, err)
		}
		check(w.Name, "mem", EncodeStream(s))
		is, err := trace.RecordIStream(w.Assemble(workload.TimingSize), 0)
		if err != nil {
			t.Fatalf("%s: record instruction stream: %v", w.Name, err)
		}
		check(w.Name, "inst", EncodeIStream(is))
	}
	if got != len(want) {
		t.Errorf("checked %d artifacts, the golden file holds %d", got, len(want))
	}
}

func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", goldenDigests, line)
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
