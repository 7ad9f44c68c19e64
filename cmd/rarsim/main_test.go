package main

import (
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rarpred/internal/faultsim"
	"rarpred/internal/workload"
)

// Each test drives run() in-process. Tests needing fault injection use a
// size no other test uses, so the shared trace cache cannot satisfy a
// lookup from an earlier test and skip the faulted recording.

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
	if !strings.Contains(out, "== fig2:") || strings.Contains(out, "partial result") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestKeepGoingSelfHeals: a workload that panics (transiently) fails
// its job as one: table51 and fig2 share gcc's pass, so both render
// partial results annotated with their own experiment, the keep-going
// sweep finishes, and the aggregate exit status is non-zero. The
// poisoned cache entry is dropped, so a later run re-records the
// workload successfully.
func TestKeepGoingSelfHeals(t *testing.T) {
	defer faultsim.Reset()
	gcc := wname(t, "gcc")
	faultsim.Inject(gcc, faultsim.Fault{Kind: faultsim.Panic, Times: 1})

	code, out, errw := runCLI("-exp", "table51,fig2", "-keepgoing",
		"-size", "13", "-bench", "go,gcc")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errw)
	}
	for _, id := range []string{"table51", "fig2"} {
		if !strings.Contains(out, "!!   "+id+"/"+gcc+": ") {
			t.Errorf("no %s annotation naming the failed workload:\n%s", id, out)
		}
	}
	if n := strings.Count(out, "!!   "); n != 2 {
		t.Errorf("%d failure annotations, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "== fig2:") {
		t.Errorf("fig2 missing from output:\n%s", out)
	}
	if !strings.Contains(errw, "completed with failures: table51 (1 workloads), fig2 (1 workloads)") {
		t.Errorf("stderr lacks the aggregate summary: %q", errw)
	}

	// The fault burned out, so the next lookup re-records gcc whole.
	code, out, errw = runCLI("-exp", "fig2", "-size", "13", "-bench", "go,gcc")
	if code != 0 {
		t.Fatalf("rerun: exit %d, want 0; stderr:\n%s", code, errw)
	}
	if strings.Contains(out, "partial result") || !strings.Contains(out, "gcc") {
		t.Errorf("fig2 did not recover the faulted workload:\n%s", out)
	}
}

// TestRunTimeoutEndsSweep: the run-wide -timeout aborts a stalled
// experiment and marks everything after it as not run, even without
// -keepgoing the deferred reporting still happens.
func TestRunTimeoutEndsSweep(t *testing.T) {
	defer faultsim.Reset()
	faultsim.Inject(wname(t, "go"), faultsim.Fault{Kind: faultsim.Stall})

	// -p 1: with a single worker fig2's cell cannot start before the
	// deadline fires, so it is reported not-run.
	code, _, errw := runCLI("-exp", "table51,fig2", "-timeout", "75ms",
		"-size", "19", "-bench", "go", "-p", "1")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errw)
	}
	if !strings.Contains(errw, "fig2: not run") {
		t.Errorf("stderr lacks the not-run report: %q", errw)
	}
	if !strings.Contains(errw, "completed with failures") {
		t.Errorf("stderr lacks the aggregate summary: %q", errw)
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
