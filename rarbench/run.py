#!/usr/bin/env python3
"""Benchmark for the rarpred paper reproduction.

Run from the repository root:

    python3 rarbench/run.py --workload record|paper|timing --seed N --seconds S --trace 0|1
    python3 rarbench/run.py --selftest
    python3 rarbench/run.py --record-expected

End-to-end numbers (--trace 0) come from running the real rarsim binary,
built from source, in a fresh process per command with tracing off. The
load is a closed loop with one client: the next command starts only after
the previous one exits, and commands repeat for --seconds seconds. Each
metric is the median over the commands of the run; set-up (building
rarsim and, for `paper`, populating the artifact store) is repeated three
times and its median reported.

Per-layer numbers (--trace 1) come from one extra command run with
-benchjson (the scheduler, cache and store counters rarsim already keeps)
and from the layer probe in rarbench/layers, which times calls into each
layer package's public functions on the same 18 analog programs.

Every command's report is checked: each experiment section, with its
"[<exp> in N s]" timing line removed, must hash to the digest recorded in
rarbench/expected.json. A non-zero exit or a mismatch counts every cell of
that command as failed. The layer probe's simulated counts must equal the
recorded ones, so a speed-only change cannot move them.

The inputs are the 18 fixed analog programs at fixed sizes, so the seed
selects nothing: every seed runs the same work, and the seed is only
recorded in the run's provenance line. A seed-chosen size or experiment
order would move wall time and peak RSS across seeds by more than the
bounds, so runs with different seeds would not compare. --size N
rechecks a claim on another workload size instead: no digests are
recorded for it, and every command of the run must agree with the first.

Everything the benchmark builds or writes stays under .bench_build/ in the
repository root.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BUILD = os.path.join(ROOT, ".bench_build")
EXPECTED = os.path.join(ROOT, "rarbench", "expected.json")

# rarsim -list order (the paper order -exp all runs in).
EXPERIMENTS = [
    "ablmerge", "ablsplit", "abldpnt", "abldist", "ablwindow", "ablmemspec",
    "ablrecovery", "synergy", "ablprofile", "fig2", "fig5", "fig6", "fig7a",
    "fig7b", "fig9", "fig10", "table51", "table52",
]
TIMING_EXPERIMENTS = ["fig9", "fig10", "ablmemspec", "ablrecovery"]
# Instruction-stream size of the timing workload: large enough that the
# pipeline, not recording, does most of the work.
TIMING_SIZE = 24
# workload.ReferenceSize: the memory-trace size the functional experiments use.
REFERENCE_SIZE = 100
WORKLOADS_PER_EXPERIMENT = 18

WORKLOADS = {
    # Recording and trace encode; no analyzer or pipeline work. No store:
    # it fsyncs every artifact and journal record, and fsync latency on a
    # shared disk swamps a sub-second command. The layer probe still
    # times store writes.
    "record": {"exps": ["table51"], "size": None, "store": None},
    # The full 18 x 18 suite replayed from a store populated during set-up.
    "paper": {"exps": EXPERIMENTS, "size": None, "store": "populated", "arg": "all"},
    # Instruction recording plus about 20 pipeline configurations per program.
    "timing": {"exps": TIMING_EXPERIMENTS, "size": TIMING_SIZE, "store": None},
}
# A set-up run that records every stream the paper workload reads: the
# memory traces (table51) and the instruction streams (fig10).
POPULATE_EXPERIMENTS = ["table51", "fig10"]

SETUP_REPEATS = 3
MIN_COMMANDS = 2
COMMAND_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "workload.assemble_s": "s",
    "funcsim.ns_per_inst": "ns/inst",
    "funcsim.insts_committed": "count",
    "trace.record_ns_per_event": "ns/event",
    "trace.irecord_ns_per_inst": "ns/inst",
    "trace.decode_ns_per_event": "ns/event",
    "trace.idecode_ns_per_inst": "ns/inst",
    "trace.compression_ratio": "ratio",
    "trace.cache.resident_mib": "MiB",
    "store.write_mib_per_s": "MiB/s",
    "store.written_mib": "MiB",
    "store.load_mib_per_s": "MiB/s",
    "store.read_mib": "MiB",
    "store.disk_hit_ratio": "ratio",
    "cloak.ddt_sweep_ns_per_event": "ns/event",
    "cloak.engine_ns_per_event": "ns/event",
    "cloak.coverage": "ratio",
    "cloak.misspec_rate": "ratio",
    "locality.ns_per_event": "ns/event",
    "vpred.ns_per_load": "ns/load",
    "pipeline.ns_per_inst.base": "ns/inst",
    "pipeline.ns_per_inst.rawrar": "ns/inst",
    "pipeline.ipc.base": "inst/cycle",
    "pipeline.ipc.rawrar": "inst/cycle",
    "pipeline.insts_committed": "count",
    "experiments.utilization": "ratio",
    "bench.trace_overhead_s": "s",
}
for _exp in EXPERIMENTS:
    LAYER_UNITS["experiments.cost_s." + _exp] = "s"
    LAYER_UNITS["experiments.span_s." + _exp] = "s"

TIMING_LINE = re.compile(rb"^\[[a-z0-9]+ in [0-9.]+s\]$")


class BenchError(Exception):
    """Set-up could not complete; no result is printed."""


def log(msg):
    print("rarbench: " + msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def go_env():
    """Environment for the go tool that keeps every cache and temp file
    inside .bench_build and never reaches for the network."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    home = os.path.join(BUILD, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-buildvcs=false",
        "GOENV": "off",
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
    })
    return env


def run_process(cmd, cwd, env, stdout_path, stderr_path, timeout):
    """Runs cmd to completion and returns (exit code, wall s, rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, usage


def tail(path, lines=15):
    try:
        with open(path, "rb") as f:
            return b"\n".join(f.read().splitlines()[-lines:]).decode(errors="replace")
    except OSError:
        return ""


def go_build(pkg_dir, out, env, logs):
    """Builds the main package in pkg_dir (relative to the root) to out."""
    if os.path.exists(out):
        os.remove(out)
    rc, _, _ = run_process(["go", "build", "-o", out, "."], os.path.join(ROOT, pkg_dir), env,
                           os.path.join(logs, "build.out"), os.path.join(logs, "build.err"),
                           BUILD_TIMEOUT_S)
    if rc != 0:
        raise BenchError("go build %s failed (exit %d):\n%s" % (pkg_dir, rc, tail(os.path.join(logs, "build.err"))))


def section_digests(report):
    """Maps each experiment section of a rarsim report to the SHA-256 of
    its bytes with the elapsed-time footer removed."""
    sections = {}
    name, buf = None, []

    def flush():
        if name is None and not any(buf):
            return
        key = name if name is not None else ""
        if key in sections:
            key += "#dup"
        sections[key] = hashlib.sha256(b"\n".join(buf)).hexdigest()

    for line in report.split(b"\n"):
        if line.startswith(b"== "):
            flush()
            name, buf = line[3:].split(b":", 1)[0].decode(errors="replace"), []
        if not TIMING_LINE.match(line):
            buf.append(line)
    flush()
    return sections


def size_key(size):
    return "default" if size is None else str(size)


class Bench:
    def __init__(self, workload, seconds, size_override):
        spec = WORKLOADS[workload]
        self.seconds = seconds
        self.override = size_override
        self.size = size_override if size_override is not None else spec["size"]
        self.store_mode = spec["store"]
        self.exps = spec["exps"]
        self.exp_arg = spec.get("arg") or ",".join(self.exps)
        self.procs = nproc()
        self.run_dir = os.path.join(BUILD, "runs", "%s-%d" % (workload, os.getpid()))
        self.bin = os.path.join(BUILD, "bin")
        self.rarsim = os.path.join(self.bin, "rarsim-%d" % os.getpid())
        self.env = go_env()
        self.run_env = dict(self.env, GOMAXPROCS=str(self.procs))
        try:
            with open(EXPECTED) as f:
                self.expected = json.load(f)
        except (OSError, ValueError):
            self.expected = {"reports": {}, "layers": {}}
        self.reference = {}  # digests of this run's first report, per section
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # --- set-up -----------------------------------------------------------

    def prepare(self):
        if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "rarsim")):
            raise BenchError("run from a rarpred checkout: go.mod or cmd/rarsim is missing under " + ROOT)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        os.makedirs(self.bin, exist_ok=True)
        self.work = os.path.join(self.run_dir, "work")
        os.makedirs(self.work)

    def setup_once(self, rep):
        """Builds rarsim and, for `paper`, populates a fresh store; returns
        the store directory (or None)."""
        go_build("cmd/rarsim", self.rarsim, self.env, self.run_dir)
        # Load the fresh binary once, so the first measured command does
        # not pay for faulting it in.
        rc, _, _ = run_process([self.rarsim, "-list"], self.work, self.run_env, os.path.join(self.run_dir, "list.out"),
                               os.path.join(self.run_dir, "list.err"), COMMAND_TIMEOUT_S)
        if rc != 0:
            raise BenchError("rarsim -list failed (exit %d)" % rc)
        if self.store_mode != "populated":
            return None
        store = os.path.join(self.run_dir, "store%d" % rep)
        cmd = [self.rarsim, "-exp", ",".join(POPULATE_EXPERIMENTS), "-p", str(self.procs), "-store", store]
        cmd += self.size_args()
        rc, _, _ = run_process(cmd, self.work, self.run_env, os.path.join(self.run_dir, "populate.out"),
                               os.path.join(self.run_dir, "populate.err"), COMMAND_TIMEOUT_S)
        if rc != 0:
            raise BenchError("populating the store failed (exit %d):\n%s" % (rc, tail(os.path.join(self.run_dir, "populate.err"))))
        return store

    def setup(self):
        times, store = [], None
        for rep in range(SETUP_REPEATS):
            if store:
                shutil.rmtree(store, ignore_errors=True)
            start = time.perf_counter()
            store = self.setup_once(rep)
            times.append(time.perf_counter() - start)
        self.store = store
        return statistics.median(times)

    # --- commands ---------------------------------------------------------

    def size_args(self):
        return [] if self.size is None else ["-size", str(self.size)]

    def command(self, store):
        cmd = [self.rarsim, "-exp", self.exp_arg, "-p", str(self.procs)]
        if store:
            cmd += ["-store", store]
        return cmd + self.size_args()

    def check_report(self, report):
        """True when every experiment section of report matches its
        recorded digest, or (without one) this run's first report."""
        got = section_digests(report)
        if set(got) != set(self.exps):
            return False
        ok = True
        for exp, digest in got.items():
            key = "%s@%s" % (exp, size_key(self.size))
            want = self.expected["reports"].get(key) or self.reference.setdefault(exp, digest)
            ok = ok and digest == want
        return ok

    def run_command(self, extra=()):
        """Runs one workload command; returns (sample, stdout bytes)."""
        store = self.store if self.store_mode == "populated" else None
        out = os.path.join(self.run_dir, "cmd.out")
        err = os.path.join(self.run_dir, "cmd.err")
        rc, wall, usage = run_process(self.command(store) + list(extra), self.work, self.run_env, out, err,
                                      COMMAND_TIMEOUT_S)
        with open(out, "rb") as f:
            report = f.read()
        cells = len(self.exps) * WORKLOADS_PER_EXPERIMENT
        self.attempted += cells
        if rc != 0:
            self.failed += cells
            self.problems.append("rarsim exited %d: %s" % (rc, tail(err, 5)))
        elif not self.check_report(report):
            self.failed += cells
            self.problems.append("report digest mismatch")
        sample = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss / 1024.0,
        }
        return sample, report

    def measure(self):
        """Closed loop: repeat the command until the next one would end
        past --seconds (at least MIN_COMMANDS times)."""
        samples = []
        start = time.perf_counter()
        while True:
            sample, _ = self.run_command()
            samples.append(sample)
            elapsed = time.perf_counter() - start
            typical = statistics.median(s["wall_s"] for s in samples)
            if len(samples) >= MIN_COMMANDS and elapsed + typical > self.seconds:
                return samples

    # --- traced run -------------------------------------------------------

    def traced(self, untraced_wall):
        bj_path = os.path.join(self.work, "bench.json")
        sample, _ = self.run_command(["-benchjson", bj_path])
        try:
            with open(bj_path) as f:
                bj = json.load(f)
        except (OSError, ValueError) as e:
            raise BenchError("traced command left no -benchjson report: %s" % e)
        layers, counts = self.layer_probe()
        metrics = dict(layers)
        metrics["bench.trace_overhead_s"] = sample["wall_s"] - untraced_wall

        cache = bj.get("trace_cache", {})
        metrics["trace.cache.resident_mib"] = cache.get("mib", 0.0)
        st = bj.get("store") or {}
        metrics["store.written_mib"] = st.get("bytes_written", 0) / float(1 << 20)
        metrics["store.read_mib"] = st.get("bytes_read", 0) / float(1 << 20)
        lookups = st.get("disk_hits", 0) + st.get("disk_misses", 0)
        metrics["store.disk_hit_ratio"] = st.get("disk_hits", 0) / float(lookups) if lookups else 0.0
        sched = bj.get("scheduler") or {}
        metrics["experiments.utilization"] = sched.get("utilization", 0.0)
        counters = bj.get("metrics", {}).get("counters", {})
        metrics["funcsim.insts_committed"] = counters.get("funcsim.insts_committed", 0)
        metrics["pipeline.insts_committed"] = counters.get("pipeline.insts_committed", 0)
        for exp in EXPERIMENTS:
            metrics["experiments.cost_s." + exp] = 0.0
            metrics["experiments.span_s." + exp] = 0.0
        for e in bj.get("experiments", []):
            metrics["experiments.cost_s." + e["id"]] = sum(c["seconds"] for c in e.get("cells", []))
            metrics["experiments.span_s." + e["id"]] = e["seconds"]

        if self.store_mode == "populated":
            # The set-up must leave nothing to record: every stream is a disk hit.
            if st.get("disk_misses", 1) != 0 or counters.get("funcsim.insts_committed", 1) != 0:
                self.problems.append("paper run recorded streams: store %s, funcsim %s insts" %
                                     (st, counters.get("funcsim.insts_committed")))
        want = self.expected["layers"].get(self.layer_key())
        if want is not None and counts != want:
            diff = sorted(k for k in set(want) | set(counts) if want.get(k) != counts.get(k))
            self.problems.append("layer probe counts differ from expected: " + ", ".join(diff))
        return metrics

    def layer_key(self):
        ref, timing = self.layer_sizes()
        return "ref=%d,timing=%d" % (ref, timing)

    def layer_sizes(self):
        if self.override is not None:
            return self.override, self.override
        return REFERENCE_SIZE, TIMING_SIZE

    def layer_probe(self):
        exe = os.path.join(self.bin, "layers-%d" % os.getpid())
        go_build("rarbench/layers", exe, self.env, self.run_dir)
        try:
            ref, timing = self.layer_sizes()
            store = os.path.join(self.run_dir, "layer-store")
            shutil.rmtree(store, ignore_errors=True)
            out = os.path.join(self.run_dir, "layers.out")
            err = os.path.join(self.run_dir, "layers.err")
            rc, _, _ = run_process([exe, "-dir", store, "-ref", str(ref), "-timing", str(timing)],
                                   self.work, self.run_env, out, err, COMMAND_TIMEOUT_S)
            if rc != 0:
                raise BenchError("layer probe failed (exit %d):\n%s" % (rc, tail(err)))
            with open(out) as f:
                doc = json.load(f)
        finally:
            os.remove(exe)
        return doc["layers"], doc["counts"]

    def cleanup(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if os.path.exists(self.rarsim):
            os.remove(self.rarsim)


def provenance(seed, workload):
    go = subprocess.run(["go", "env", "GOVERSION"], capture_output=True, text=True, env=go_env(), cwd=ROOT)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        if git.returncode == 0:
            commit = git.stdout.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "gomaxprocs": nproc(),
        "go_version": go.stdout.strip(),
        "commit": commit,
        "source_sha256": h.hexdigest(),
    }


def run_workload(workload, seed, seconds, trace, size_override=None):
    """Runs one benchmark run; returns (result dict, provenance dict)."""
    b = Bench(workload, seconds, size_override)
    try:
        b.prepare()
        setup_s = b.setup()
        samples = b.measure()
        medians = {k: statistics.median(s[k] for s in samples) for k in ("wall_s", "cpu_s", "peak_rss_mib")}
        if trace:
            metrics = b.traced(medians["wall_s"])
            units = LAYER_UNITS
        else:
            metrics = dict(medians, setup_s=setup_s)
            units = END_TO_END_UNITS
    finally:
        b.cleanup()
    prov = provenance(seed, workload)
    prov.update(commands=len(samples), experiments=b.exps, size=size_key(b.size))
    if b.problems:
        prov["problems"] = b.problems[:10]
    result = {
        "correct": b.failed == 0 and not b.problems,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }
    return result, prov


def emit(result, prov):
    for name, m in result["metrics"].items():
        print("%-34s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


# --- self-test ------------------------------------------------------------

def selftest():
    """Runs each workload once at a tiny size in both modes and checks the
    output contract, the report check and the repeatability of counts."""
    size = 4
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    for group, trace in (("end_to_end", 0), ("per_layer", 1)):
        want = {m["name"]: m["unit"] for m in declared[group]}
        for w in WORKLOADS:
            result, prov = run_workload(w, 1, 0, trace, size_override=size)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d: metrics/units differ from BENCHMARK.json: %s" %
                                (w, trace, sorted(set(got.items()) ^ set(want.items()))))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s trace=%d: %s" % (w, trace, prov.get("problems")))
            missing = [k for k in ("nproc", "gomaxprocs", "go_version", "commit", "seed") if k not in prov]
            if missing:
                problems.append("provenance lacks " + ", ".join(missing))
            log("selftest: %s trace=%d done" % (w, trace))

    # A one-byte corruption of a real report must count as failed.
    b = Bench("timing", 0, size)
    try:
        b.prepare()
        b.setup()
        _, report = b.run_command()
        if not b.check_report(report):
            problems.append("a clean report failed its own check")
        i = report.index(b"%") - 1
        corrupt = report[:i] + bytes([report[i] ^ 1]) + report[i + 1:]
        if b.check_report(corrupt):
            problems.append("a one-byte-corrupted report passed the check")

        # Two layer-probe runs at a small size must agree on every count
        # and on every simulated statistic.
        exact = ("cloak.coverage", "cloak.misspec_rate", "pipeline.ipc.base", "pipeline.ipc.rawrar",
                 "trace.compression_ratio")
        first, second = b.layer_probe(), b.layer_probe()
        if first[1] != second[1] or any(first[0][k] != second[0][k] for k in exact):
            problems.append("layer probe counts differ between two runs")
    finally:
        b.cleanup()
    for p in problems:
        log("selftest: FAIL: " + p)
    if not problems:
        log("selftest: ok")
    return 1 if problems else 0


def record_expected():
    """Writes rarbench/expected.json from one command per workload at the
    default sizes. Run it only when a change is meant to alter reports."""
    expected = {"reports": {}, "layers": {}}
    for w in WORKLOADS:
        b = Bench(w, 0, None)
        b.expected = {"reports": {}, "layers": {}}
        try:
            b.prepare()
            b.setup()
            _, report = b.run_command()
            if b.failed:
                raise BenchError("%s: %s" % (w, b.problems))
            for exp, digest in section_digests(report).items():
                key = "%s@%s" % (exp, size_key(b.size))
                if expected["reports"].setdefault(key, digest) != digest:
                    raise BenchError("%s: report of %s differs between workloads" % (w, key))
            if w == "timing":
                expected["layers"][b.layer_key()] = b.layer_probe()[1]
        finally:
            b.cleanup()
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + EXPECTED)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, help="workload size parameter for every command (no recorded digests)")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.record_expected:
            return record_expected()
        if not args.workload:
            ap.error("--workload required")
        result, prov = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as e:
        log(str(e))
        return 2
    emit(result, prov)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
