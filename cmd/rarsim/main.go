// Command rarsim runs the paper-reproduction experiments: one per table
// and figure of "Read-After-Read Memory Dependence Prediction" (MICRO
// 1999), plus this repository's ablations.
//
// All functional (non-timing) experiments read each workload's committed
// memory reference stream in one job, so `-exp all` records every
// workload once and replays the stream into each experiment's analyzers
// in one pass; the timing experiments likewise share one job, and one
// instruction recording, per workload. A recording belongs to the job
// that reads it and is released when the job ends.
//
// Usage:
//
//	rarsim -list                 # list experiments
//	rarsim -exp fig6             # run one experiment
//	rarsim -exp all              # run everything in paper order
//	rarsim -exp fig9 -size 6     # smaller workloads (faster)
//	rarsim -exp fig2 -bench gcc  # restrict to one workload
//	rarsim -workloads            # list the benchmark suite
//	rarsim -exp all -cpuprofile cpu.pprof   # profile the run
//	rarsim -exp all -timeout 10m            # bounded sweep
//	rarsim -exp all -benchjson BENCH_suite.json  # machine-readable timings
//	rarsim -exp all -store .rarstore        # persist traces + run journal
//	rarsim -exp all -store .rarstore -resume  # continue an interrupted sweep
//
// Multi-experiment sweeps run on a suite-level scheduler: every
// (experiment × workload) cell from every requested experiment feeds,
// in paper order, one shared worker pool (-parallelism workers), each
// workload's trace records once no matter how many experiments need it,
// and results print in paper order as they complete — the output is
// byte-identical at any parallelism, which -check verifies against a
// shadow run of each experiment alone, where no two experiments share
// a job.
//
// The run is cancellable: Ctrl-C (SIGINT), SIGTERM, and -timeout all
// stop the simulators at the next poll point, and every experiment that
// had not started is reported not run. A workload that fails (a panic, a
// corrupt recording, a -check divergence) fails its experiment, and the
// sweep ends there: rarsim prints the experiments delivered before it,
// reports each failed cell on stderr as <exp>/<workload>: <cause>, and
// exits 1. The simulation is deterministic, so a failure reproduces, and
// `-exp <id> -bench <w>` reruns one cell alone.
//
// -store makes the run crash-safe: trace recordings persist as
// checksummed artifacts (each job loads its recording from the store
// before recording it, and saves one it recorded once it has passed
// validation, so later runs and processes reuse it), and
// multi-experiment sweeps journal each completed (experiment ×
// workload) cell durably.
// After an interruption — SIGKILL included — rerunning with -resume
// replays the journaled cells' rows and simulates only the remainder,
// producing byte-identical aggregate output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"rarpred/internal/cloak"
	"rarpred/internal/experiments"
	"rarpred/internal/metrics"
	"rarpred/internal/pipeline"
	"rarpred/internal/store"
	"rarpred/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without os.Exit, so deferred cleanup (profiles, files)
// always executes and tests can drive the CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rarsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "", "experiment id (see -list), or 'all'")
		size       = fs.Int("size", 0, "workload size parameter (0 = experiment default)")
		bench      = fs.String("bench", "", "comma-separated workload abbreviations (default: all)")
		list       = fs.Bool("list", false, "list experiments and exit")
		lists      = fs.Bool("workloads", false, "list the benchmark suite and exit")
		parallel   = fs.Int("p", 0, "max concurrent workload simulations (0 = GOMAXPROCS)")
		benchjson  = fs.String("benchjson", "", "write machine-readable suite timings (per-experiment, per-cell, scheduler utilization, artifact store) to this JSON file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		timeout    = fs.Duration("timeout", 0, "deadline for the whole run (0 = none)")
		storeDir   = fs.String("store", "", "directory for durable artifacts: persisted trace recordings and the suite run journal")
		resume     = fs.Bool("resume", false, "with -store: replay cells the journal recorded as complete and simulate only the remainder")
		progress   = fs.Bool("progress", false, "periodic one-line status on stderr (cells done/total, ETA, Minsts/s); redraws in place on a TTY, plain lines otherwise")
		selfcheck  = fs.Bool("check", false, "arm the differential oracles and invariant sweeps: cloak/pipeline self-checks, replay-vs-live stream verification, and a shadow run of each experiment alone compared against the suite's output")
	)
	fs.IntVar(parallel, "parallelism", 0, "alias of -p")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	case *lists:
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "%-4s %-10s %-12s %s\n    %s\n",
				w.Abbrev, w.Name, w.Analog, w.Class, w.Description)
		}
		return 0
	case *exp == "":
		fmt.Fprintln(stderr, "rarsim: -exp required (try -list)")
		return 2
	case *resume && *storeDir == "":
		fmt.Fprintln(stderr, "rarsim: -resume requires -store")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "rarsim: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "rarsim: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// SIGTERM (the polite kill a scheduler or container runtime sends)
	// drains exactly like Ctrl-C: simulators stop at the next poll point
	// and everything journaled so far stays journaled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Escalation: a second SIGINT/SIGTERM during the graceful drain
	// force-exits with a goroutine dump, so a wedged cell can never hold
	// the process hostage once the operator has asked twice. The watcher
	// has its own registration (NotifyContext consumed the first signal
	// for cancellation); sigDone retires it for in-process callers.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	sigDone := make(chan struct{})
	defer close(sigDone)
	go watchSignals(sigs, sigDone, stderr, func(code int) { os.Exit(code) })
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -progress writes only to stderr, so the suite report on stdout is
	// byte-identical with or without it. It monitors the main run alone:
	// stopProgress closes it, with a final status, once that run is
	// done, before -check's shadow run resets the suite gauges; the
	// deferred call covers the early returns.
	stopProgress := func() {}
	if *progress {
		stopProgress = sync.OnceFunc(startProgress(stderr).close)
		defer stopProgress()
	}

	opt := experiments.Options{
		Size:        *size,
		Parallelism: *parallel,
		Context:     ctx,
		Check:       *selfcheck,
	}
	if *selfcheck {
		// Arm the per-package invariant sweeps for every simulator built
		// during this run, and disarm on the way out so in-process
		// callers (tests) do not leak checking into later runs.
		cloak.SetSelfCheck(true)
		pipeline.SetSelfCheck(true)
		defer cloak.SetSelfCheck(false)
		defer pipeline.SetSelfCheck(false)
	}
	if *bench != "" {
		for _, ab := range strings.Split(*bench, ",") {
			w, ok := workload.ByAbbrev(strings.TrimSpace(ab))
			if !ok {
				fmt.Fprintf(stderr, "rarsim: unknown workload %q (try -workloads)\n", ab)
				return 2
			}
			opt.Workloads = append(opt.Workloads, w)
		}
	}

	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "rarsim: unknown experiment %q (try -list)\n", id)
				return 2
			}
			todo = append(todo, e)
		}
	}

	// The durable artifact store holds the jobs' recordings
	// (Options.Store) and opens the run journal that makes the sweep
	// resumable.
	var artifacts *store.Store
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "rarsim: -store: %v\n", err)
			return 1
		}
		artifacts = st
		opt.Store = st
		// The journal is bound to the run configuration: resuming under
		// different experiments, workloads, or modes would splice rows
		// that mean something else into the report.
		fingerprint := fmt.Sprintf("v2 exp=%s size=%d bench=%s check=%t",
			expIDs(todo), *size, *bench, *selfcheck)
		jnl, err := st.OpenJournal(fingerprint, *resume)
		if err != nil {
			fmt.Fprintf(stderr, "rarsim: -store: %v\n", err)
			return 1
		}
		defer jnl.Close()
		opt.Journal = jnl
		if *resume && jnl.Resumed() > 0 {
			fmt.Fprintf(stderr, "rarsim: resuming: %d cell(s) journaled by a previous run\n", jnl.Resumed())
		}
	}

	var failed []string
	breport := newBenchReport(*parallel)
	breport.store = artifacts

	// Under -check, the suite's rendered output is captured so a shadow
	// run of each experiment alone can be compared against it afterwards.
	var schedOut strings.Builder
	if *selfcheck {
		stdout = io.MultiWriter(stdout, &schedOut)
	}

	// report prints one delivered experiment's output, appending to
	// failed as it goes. It returns false, ending the sweep, at the first
	// failed experiment, unless the run context's end failed it: then
	// the sweep goes on, so that every experiment after it is reported
	// not run.
	report := func(item experiments.SuiteItem) bool {
		if item.Index > 0 {
			fmt.Fprintln(stdout)
		}
		breport.add(item)
		if item.NotRun {
			fmt.Fprintf(stderr, "rarsim: %s: not run: %v\n", item.Exp.ID, item.Err)
			failed = append(failed, item.Exp.ID)
			return true
		}
		fmt.Fprintf(stdout, "== %s: %s\n", item.Exp.ID, item.Exp.Title)
		if item.Err != nil {
			fmt.Fprintf(stderr, "rarsim: %v\n", item.Err)
			failed = append(failed, item.Exp.ID)
			return errors.Is(item.Err, ctx.Err())
		}
		fmt.Fprint(stdout, item.Result.String())
		fmt.Fprintf(stdout, "[%s in %.1fs]\n", item.Exp.ID, item.Cost().Seconds())
		return true
	}

	stats := experiments.RunSuite(opt, todo, report)
	stopProgress()
	breport.Scheduler = &benchScheduler{
		Cells:       stats.Cells,
		Workers:     stats.Workers,
		WallSeconds: stats.Wall.Seconds(),
		BusySeconds: stats.Busy.Seconds(),
		Utilization: stats.Busy.Seconds() / (stats.Wall.Seconds() * float64(stats.Workers)),
	}
	// The shadow run below runs suites of its own, which reset the
	// suite gauges and add to the counters, so the report is written
	// first: it describes the main run alone.
	shadow := *selfcheck && len(failed) == 0 && ctx.Err() == nil
	if *benchjson != "" {
		if err := breport.write(*benchjson); err != nil {
			fmt.Fprintf(stderr, "rarsim: -benchjson: %v\n", err)
			if len(failed) == 0 {
				failed = append(failed, "benchjson")
			}
		}
	}
	if shadow {
		if msg := shadowCompare(opt, todo, schedOut.String()); msg != "" {
			fmt.Fprintf(stderr, "rarsim: -check: %s\n", msg)
			failed = append(failed, "check-shadow")
		}
	}
	return finish(stderr, *memprofile, failed)
}

// expIDs renders the sweep's experiment list for the journal
// fingerprint.
func expIDs(todo []experiments.Experiment) string {
	ids := make([]string, len(todo))
	for i, e := range todo {
		ids[i] = e.ID
	}
	return strings.Join(ids, ",")
}

// timingLine matches the per-experiment elapsed-time footer, the only
// nondeterministic bytes in a sweep's report.
var timingLine = regexp.MustCompile(`\[([a-z0-9]+) in [0-9.]+s\]`)

// shadowCompare is the sharing-vs-alone differential oracle: it re-runs
// the sweep one experiment at a time (Experiment.Run, a suite of one
// that never touches the journal) and compares the rendered reports,
// which the two runs promise to keep byte-identical modulo elapsed
// times. Each experiment alone obtains its recordings again (from the
// store, if there is one), replays them in a pass of its own and
// simulates its own timing configurations, so both the passes the
// suite's functional cells shared and the timing Results its timing
// cells shared are checked independently. The main run's jobs have
// verified every recording, so the shadow run does not verify again: a
// recording it got that differed from the main run's would show in the
// comparison. It runs only after a clean sweep: a failed one ended
// early.
func shadowCompare(opt experiments.Options, todo []experiments.Experiment, schedOut string) string {
	opt.Check = false
	var sb strings.Builder
	for i, e := range todo {
		if i > 0 {
			fmt.Fprintln(&sb)
		}
		res, err := e.Run(opt)
		if err != nil {
			return fmt.Sprintf("shadow run of %s alone failed: %v", e.ID, err)
		}
		fmt.Fprintf(&sb, "== %s: %s\n", e.ID, e.Title)
		fmt.Fprint(&sb, res.String())
		fmt.Fprintf(&sb, "[%s in 0.0s]\n", e.ID)
	}
	got := timingLine.ReplaceAllString(schedOut, "[$1]")
	want := timingLine.ReplaceAllString(sb.String(), "[$1]")
	if got == want {
		return ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("suite output diverges from the experiments run alone at line %d:\n  suite: %q\n  alone: %q",
				i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("suite output diverges from the experiments run alone: %d vs %d lines", len(gl), len(wl))
}

// benchSchemaVersion identifies the -benchjson layout so downstream
// tooling can reject payloads it does not understand. Version 1 had no
// schema_version/timestamp/parallelism fields; version 2 added them;
// version 3 added the optional artifact-store section (disk tier and
// resume statistics) and the per-cell resumed flag; version 4 added
// trace compression accounting (trace_cache raw/resident bytes and
// ratio, store raw_bytes_written); version 5 added the metrics section,
// a verbatim snapshot of the unified registry (counters, gauges,
// span histograms) taken at report time; version 6 added the
// optional supervise section and store breaker stats, both omitempty
// and no longer emitted since the supervisor and circuit breaker were
// removed (a v6 reader sees payloads without them, as when unarmed);
// version 7 dropped trace_cache's evictions, pinned and budget_mib
// fields and the metrics snapshot's suite.cost_* gauges and
// trace.cache.{evictions,pinned,budget} instruments, since the cache no
// longer evicts and the scheduler no longer orders cells by cost;
// version 8 added each experiment's cost_seconds (the sum of its cells'
// seconds, next to seconds, its span from first cell start to delivery)
// and the per-cell fused flag: a suite runs each workload's functional
// cells as one job, and its timing cells as another, whose time is
// split evenly over the cells it covers, so the cells' seconds sum to
// the scheduler's busy_seconds. (Version 8 first fused only functional
// cells; timing cells joining a job of their own changed no field, so
// the version stayed.) Version 9 dropped the trace_cache section and
// the metrics snapshot's trace.cache.* instruments: recordings belong
// to the jobs that read them, and no process-wide cache holds them.
// Version 10 dropped the store's retries and added its load_errors: the
// store no longer retries, and a read that fails is served as a miss.
// Version 11 dropped the metrics snapshot's suite.queue_depth,
// suite.workers and suite.workers_busy gauges, which nothing read: the
// scheduler section's workers is the pool size.
const benchSchemaVersion = 11

// benchReport is the -benchjson payload: machine-readable timings for
// the whole sweep.
type benchReport struct {
	SchemaVersion int `json:"schema_version"`
	// Timestamp is the wall-clock time the report was written (RFC 3339,
	// UTC).
	Timestamp string `json:"timestamp"`
	// Parallelism is the worker count the run actually used (the
	// -parallel flag resolved against GOMAXPROCS).
	Parallelism int             `json:"parallelism"`
	Experiments []benchExp      `json:"experiments"`
	Scheduler   *benchScheduler `json:"scheduler,omitempty"`
	// Store reports the durable artifact store; present only when the
	// run used -store.
	Store *benchStore `json:"store,omitempty"`
	// Metrics is the unified registry's end-of-run snapshot (schema v5).
	Metrics metrics.Snapshot `json:"metrics"`

	store        *store.Store // nil without -store
	resumedCells int
}

type benchExp struct {
	ID string `json:"id"`
	// Seconds spans the experiment's first cell starting to its
	// delivery; CostSeconds sums its cells' seconds.
	Seconds     float64     `json:"seconds"`
	CostSeconds float64     `json:"cost_seconds"`
	NotRun      bool        `json:"not_run,omitempty"`
	Failed      bool        `json:"failed,omitempty"`
	Cells       []benchCell `json:"cells,omitempty"`
}

type benchCell struct {
	Workload string `json:"workload"`
	// Seconds is the cell's share of its job's time (schema 8).
	Seconds float64 `json:"seconds"`
	Failed  bool    `json:"failed,omitempty"`
	Resumed bool    `json:"resumed,omitempty"`
	// Fused marks a cell that ran in one of its workload's jobs with
	// other experiments' cells: the pass over its reference stream, or
	// the timing job over its instruction stream (schema 8).
	Fused bool `json:"fused,omitempty"`
}

type benchScheduler struct {
	Cells       int     `json:"cells"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	BusySeconds float64 `json:"busy_seconds"`
	// Utilization is busy / (wall × workers): 1.0 means every worker
	// executed cells for the whole run.
	Utilization float64 `json:"utilization"`
}

type benchStore struct {
	DiskHits     uint64 `json:"disk_hits"`
	DiskMisses   uint64 `json:"disk_misses"`
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
	Quarantines  uint64 `json:"quarantines"`
	LoadErrors   uint64 `json:"load_errors"`
	SaveErrors   uint64 `json:"save_errors"`
	// RawBytesWritten is the uncompressed payload of the artifacts behind
	// BytesWritten; the gap between the two is what compression saved on
	// disk.
	RawBytesWritten uint64 `json:"raw_bytes_written"`
	// ResumedCells counts cells replayed from the run journal instead of
	// simulated.
	ResumedCells int `json:"resumed_cells"`
}

func newBenchReport(parallelism int) *benchReport {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &benchReport{
		SchemaVersion: benchSchemaVersion,
		Parallelism:   parallelism,
		Experiments:   []benchExp{},
	}
}

func (b *benchReport) add(item experiments.SuiteItem) {
	e := benchExp{
		ID:          item.Exp.ID,
		Seconds:     item.Elapsed.Seconds(),
		CostSeconds: item.Cost().Seconds(),
		NotRun:      item.NotRun,
		Failed:      item.Err != nil,
	}
	for _, c := range item.Cells {
		if c.Resumed {
			b.resumedCells++
		}
		e.Cells = append(e.Cells, benchCell{Workload: c.Workload, Seconds: c.Elapsed.Seconds(),
			Failed: c.Failed, Resumed: c.Resumed, Fused: c.Fused})
	}
	b.Experiments = append(b.Experiments, e)
}

func (b *benchReport) write(path string) error {
	b.Timestamp = time.Now().UTC().Format(time.RFC3339)
	b.Metrics = metrics.Default().Snapshot()
	if b.store != nil {
		ss := b.store.Stats()
		b.Store = &benchStore{
			DiskHits:        ss.DiskHits,
			DiskMisses:      ss.DiskMisses,
			BytesRead:       ss.BytesRead,
			BytesWritten:    ss.BytesWritten,
			Quarantines:     ss.Quarantines,
			LoadErrors:      ss.LoadErrors,
			SaveErrors:      ss.SaveErrors,
			RawBytesWritten: ss.RawBytesWritten,
			ResumedCells:    b.resumedCells,
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// finish writes the heap profile, if one was asked for, and converts the
// failure list into the process exit code.
func finish(stderr io.Writer, memprofile string, failed []string) int {
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "rarsim: -memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "rarsim: -memprofile: %v\n", err)
			return 1
		}
	}

	if len(failed) > 0 {
		fmt.Fprintf(stderr, "rarsim: completed with failures: %s\n", strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// forceExitCode is what a second-signal force exit returns: outside the
// 0 (clean) / 1 (failures) / 2 (usage) codes, so wrappers can tell an
// abandoned drain from an ordinary failure.
const forceExitCode = 3

// watchSignals escalates a stuck drain: the first SIGINT/SIGTERM
// belongs to NotifyContext (graceful cancellation at the next poll
// point); the second means the drain itself is wedged — dump every
// goroutine to stderr (the post-mortem for whatever was stuck) and
// force-exit nonzero. done retires the watcher on a normal exit so
// in-process callers (tests) never leak it. exit is injectable for
// tests; in production it is os.Exit.
func watchSignals(sigs <-chan os.Signal, done <-chan struct{}, stderr io.Writer, exit func(int)) {
	for seen := 0; ; {
		select {
		case <-done:
			return
		case <-sigs:
			if seen++; seen < 2 {
				continue
			}
			fmt.Fprintf(stderr, "rarsim: second signal during drain — forcing exit\n")
			if p := pprof.Lookup("goroutine"); p != nil {
				_ = p.WriteTo(stderr, 2)
			}
			exit(forceExitCode)
			return
		}
	}
}
