package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rarpred/internal/workload"
)

// Each test drives run() in-process.

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func wname(t *testing.T, abbrev string) string {
	t.Helper()
	w, ok := workload.ByAbbrev(abbrev)
	if !ok {
		t.Fatalf("unknown workload %s", abbrev)
	}
	return w.Name
}

func TestListExitsZero(t *testing.T) {
	code, out, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(out, "fig2") || !strings.Contains(out, "table51") {
		t.Errorf("listing missing experiments:\n%s", out)
	}
}

func TestMissingExpExitsTwo(t *testing.T) {
	code, _, errw := runCLI()
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw, "-exp required") {
		t.Errorf("stderr = %q", errw)
	}
}

func TestUnknownExperimentExitsTwo(t *testing.T) {
	code, _, errw := runCLI("-exp", "fig99")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw, "unknown experiment") {
		t.Errorf("stderr = %q", errw)
	}
}

func TestCleanRunExitsZero(t *testing.T) {
	code, out, errw := runCLI("-exp", "fig2", "-size", "4", "-bench", "go,gcc")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errw)
	}
	if !strings.Contains(out, "== fig2:") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestRunTimeoutEndsSweep: a run whose -timeout passes before any cell
// starts reports every experiment not run, prints the failure summary,
// and exits 1.
func TestRunTimeoutEndsSweep(t *testing.T) {
	code, out, errw := runCLI("-exp", "table51,fig2", "-timeout", "1ns",
		"-size", "19", "-bench", "go", "-p", "1")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errw)
	}
	for _, id := range []string{"table51", "fig2"} {
		if !strings.Contains(errw, "rarsim: "+id+": not run") {
			t.Errorf("stderr lacks %s's not-run report: %q", id, errw)
		}
	}
	if !strings.Contains(errw, "completed with failures: table51, fig2") {
		t.Errorf("stderr lacks the aggregate summary: %q", errw)
	}
	if strings.Contains(out, "== ") {
		t.Errorf("a not-run experiment printed a section:\n%s", out)
	}
}

// TestFailedExperimentEndsSweep: a failed workload fails the run. com's
// memory recording is planted poisoned in the store (it passes
// validation but holds one wrong value), so under -check the sweep
// prints fig10, whose timing job reads the instruction recording, fails
// fig2 on com's divergence, never delivers table51, and exits 1. The
// job that loaded the poisoned recording quarantines it, so a plain
// rerun over the same store records com afresh and prints a clean
// run's report.
func TestFailedExperimentEndsSweep(t *testing.T) {
	args := []string{"-exp", "fig10,fig2,table51", "-size", "5", "-bench", "com,m88", "-check", "-p", "1"}
	dir := t.TempDir()
	key := recordingKey(t, "com", 5, false)
	plant(t, dir, key, poisonedStream(t, key))
	art := artifactPath(t, dir, key)

	bench := filepath.Join(t.TempDir(), "b.json")
	code, out, errw := runCLI(append(args, "-store", dir, "-benchjson", bench)...)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errw)
	}
	if !strings.Contains(out, "== fig10:") || !strings.Contains(out, "[fig10 in ") {
		t.Errorf("fig10's section missing:\n%s", out)
	}
	if strings.Contains(out, "table51") {
		t.Errorf("table51 delivered after the failure:\n%s", out)
	}
	if want := "rarsim: fig2/" + key.Workload + ": check: replayed stream diverges from live baseline: event 7"; !strings.Contains(errw, want) {
		t.Errorf("stderr lacks %q:\n%s", want, errw)
	}
	if !strings.Contains(errw, "completed with failures: fig2\n") {
		t.Errorf("stderr lacks the aggregate summary:\n%s", errw)
	}
	if got := benchStoreField(t, readBench(t, bench), "quarantines"); got != 1 {
		t.Errorf("quarantines = %v, want the poisoned recording's 1", got)
	}
	if _, err := os.Stat(art + ".quarantined"); err != nil {
		t.Errorf("poisoned artifact not quarantined: %v", err)
	}

	code, ref, errw := runCLI(args...)
	if code != 0 {
		t.Fatalf("run without a store exit %d, want 0; stderr:\n%s", code, errw)
	}
	code, out, errw = runCLI(append(args, "-store", dir)...)
	if code != 0 {
		t.Fatalf("rerun exit %d, want 0; stderr:\n%s", code, errw)
	}
	if normalizeTiming(out) != normalizeTiming(ref) {
		t.Errorf("rerun's report differs from a run without a store:\n%s\nvs\n%s", out, ref)
	}
}

// syncBuilder is a strings.Builder safe for the watcher goroutine to
// write while the test reads.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestWatchSignalsForceExit: the first signal is left to graceful
// cancellation; the second dumps every goroutine and force-exits with
// the dedicated code.
func TestWatchSignalsForceExit(t *testing.T) {
	sigs := make(chan os.Signal, 2)
	done := make(chan struct{})
	var errw syncBuilder
	exited := make(chan int, 1)
	go watchSignals(sigs, done, &errw, func(code int) { exited <- code })

	sigs <- syscall.SIGINT
	select {
	case code := <-exited:
		t.Fatalf("first signal force-exited with code %d", code)
	case <-time.After(50 * time.Millisecond):
	}

	sigs <- syscall.SIGTERM
	select {
	case code := <-exited:
		if code != forceExitCode {
			t.Errorf("force exit code = %d, want %d", code, forceExitCode)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second signal did not force an exit")
	}
	out := errw.String()
	if !strings.Contains(out, "second signal") {
		t.Errorf("stderr lacks the escalation notice:\n%s", out)
	}
	if !strings.Contains(out, "goroutine") {
		t.Errorf("stderr lacks the goroutine dump:\n%s", out)
	}
	close(done) // retires the watcher after exit
}

// TestWatchSignalsRetiresOnDone: a normal exit closes done and the
// watcher returns without ever calling exit, even after one signal.
func TestWatchSignalsRetiresOnDone(t *testing.T) {
	sigs := make(chan os.Signal, 1)
	done := make(chan struct{})
	var errw syncBuilder
	exited := make(chan int, 1)
	retired := make(chan struct{})
	go func() {
		watchSignals(sigs, done, &errw, func(code int) { exited <- code })
		close(retired)
	}()

	sigs <- syscall.SIGINT
	close(done)
	select {
	case <-retired:
	case <-time.After(2 * time.Second):
		t.Fatal("watcher did not retire when done closed")
	}
	select {
	case code := <-exited:
		t.Fatalf("retired watcher called exit(%d)", code)
	default:
	}
	if out := errw.String(); out != "" {
		t.Errorf("retired watcher wrote to stderr:\n%s", out)
	}
}
