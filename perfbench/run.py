#!/usr/bin/env python3
"""Pipeline benchmark for tsufail: analyze (CSV and .tsnap), sweep, serve replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run builds `tsufail`
and the C++ harness into .bench_build/ (the repository's default
RelWithDebInfo build); later runs only check the build is current.

Workloads (inputs are generated from --seed and reach the program only as
files or protocol lines):
  analyze-csv    `tsufail analyze log.csv --jobs 1` on a 10^6-record log
  analyze-tsnap  the same log packed with its index, `tsufail analyze log.tsnap --jobs J`
  sweep          `tsufail sweep --replicates 1000 --jobs J` on the Tsubame-3 model
  serve-replay   one in-process client replaying 300 tenants through the line protocol
J is min(4, nproc).

--trace 0 repeats the workload's unit (one command, or one replay) until
--seconds have passed, checks every output, and prints the end-to-end
metrics.  --trace 1 runs the workload untraced (three commands, or a
warm-up replay and one more), then once with a span around every public
call into each layer, and prints the per-layer metrics; the serve ingest
and query figures among them come from the untraced replay.  The last
stdout line is the JSON result; the lines before it are the same numbers
for people, plus the build and host they came from.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
HARNESS = CMAKE_DIR / "perfbench"
TSUFAIL = CMAKE_DIR / "tsufail" / "tools" / "tsufail"

WORKLOADS = ("analyze-csv", "analyze-tsnap", "sweep", "serve-replay")
SWEEP_REPLICATES = 1000
# The sweep reads no input, so its set-up is process start-up, timed over
# this many launches; the harness times the other workloads' set-up.
SWEEP_SETUP_LAUNCHES = 31
# No single child may outlive this (the whole run must end within 180 s).
CHILD_TIMEOUT_S = 150

# name -> (unit, better).  BENCHMARK.json lists exactly these.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
ANALYSIS_TASKS = (
    "categories", "software_loci", "node_counts", "gpu_slots", "multi_gpu", "tbf",
    "tbf_by_category", "multi_gpu_clustering", "ttr", "ttr_by_category", "seasonal",
    "perf_error_prop",
)
PER_LAYER = {
    "util.csv_tokenize_s": ("s", "lower"),
    "data.csv_read_s": ("s", "lower"),
    "data.csv_read_mb_per_s": ("MB/s", "higher"),
    "data.log_create_s": ("s", "lower"),
    "data.rows_rejected": ("count", "lower"),
    "data.tsnap_open_s": ("s", "lower"),
    "data.tsnap_to_log_s": ("s", "lower"),
    "data.pack_s": ("s", "lower"),
    "data.index_build_s": ("s", "lower"),
    "data.parse_row_p50_us": ("us", "lower"),
    "data.snapshot_extend_p50_ms": ("ms", "lower"),
    **{f"analysis.{task}_s": ("s", "lower") for task in ANALYSIS_TASKS},
    "analysis.study_s": ("s", "lower"),
    "analysis.critical_path_s": ("s", "lower"),
    "analysis.executor_overhead_s": ("s", "lower"),
    "stats.select_family_s": ("s", "lower"),
    "stats.bootstrap_s": ("s", "lower"),
    "report.render_s": ("s", "lower"),
    "sim.generate_s": ("s", "lower"),
    "sim.study_metrics_s": ("s", "lower"),
    "sim.cell_phase_s": ("s", "lower"),
    "sim.reduce_s": ("s", "lower"),
    "sim.worker_busy_ratio": ("ratio", "higher"),
    "stream.offer_p50_us": ("us", "lower"),
    "serve.event_p50_us": ("us", "lower"),
    "serve.event_p99_us": ("us", "lower"),
    "serve.ingest_row_p50_us": ("us", "lower"),
    "serve.seal_p50_ms": ("ms", "lower"),
    "serve.seal_p99_ms": ("ms", "lower"),
    "serve.query_p50_ms": ("ms", "lower"),
    "serve.query_p99_ms": ("ms", "lower"),
    "serve.query_hit_p50_ms": ("ms", "lower"),
    "serve.query_miss_p50_ms": ("ms", "lower"),
    "serve.query_miss_p99_ms": ("ms", "lower"),
    "serve.ingest_events_per_s": ("events/s", "higher"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "serve.cache_hits": ("count", "higher"),
    "serve.cache_misses": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.attributed_ratio": ("ratio", "higher"),
}
# ROADMAP's coverage target for spans; reported, never gated on.
COVERAGE_TARGET = 0.95


class BenchError(Exception):
    pass


# --- statistics -----------------------------------------------------------------

def tail_percentile(n, highest=99.0):
    """The highest of the usual percentiles (capped at `highest`) with at
    least ten of `n` samples beyond it; the median when none has."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if p <= highest and n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values, p):
    """Nearest-rank percentile of `values` (need not be sorted)."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def error_ratio(attempted, failed):
    if attempted < 1:
        raise BenchError("no operation was attempted")
    return failed / attempted


def overhead_ratio(traced_s, untraced_s):
    return traced_s / untraced_s - 1.0


def covered_s(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Counts:
    """Attempted and failed operations: commands, protocol lines, output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def check(self, ok):
        self.add(1, 0 if ok else 1)


# --- processes --------------------------------------------------------------------

def run_child(argv, stdout_path=None):
    """Runs one child to completion with its stdout in `stdout_path`;
    returns (wall_s, peak_rss_mib, exit code, stdout bytes)."""
    stdout_path = Path(stdout_path or BUILD / "child.out")
    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4, not Popen.wait: it also returns the child's own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sys.stderr.write(stderr_path.read_text(errors="replace"))
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout_path.read_bytes()


def harness(*argv):
    """Runs the C++ harness; returns (its JSON result, peak_rss_mib)."""
    _, rss, code, stdout = run_child([HARNESS, *argv])
    if code != 0:
        raise BenchError(f"perfbench {argv[0]} failed with exit code {code}")
    return json.loads(stdout.decode().strip().splitlines()[-1]), rss


def build(jobs):
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))  # compiler temporaries stay in the checkout
    log_path = BUILD / "build.log"
    with open(log_path, "ab") as log:
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench", "tsufail",
                      "-j", str(jobs)])
        for step in steps:
            if subprocess.run([str(a) for a in step], stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def host_line(nproc, jobs):
    """The host and build the numbers come from (`tsufail --version`)."""
    info = {}
    for line in run_child([TSUFAIL, "--version"])[3].decode().splitlines()[1:]:
        key, _, value = line.partition(":")
        info[key.strip()] = value.strip()
    return (f"host: nproc {nproc}, jobs {jobs}, compiler {info.get('compiler')}, "
            f"build type {info.get('build type')}, simd {info.get('simd')}")


# --- untraced workloads --------------------------------------------------------

def repeat_for(seconds, body):
    """Calls body() until `seconds` have passed (at least once)."""
    start = time.perf_counter()
    body()
    while time.perf_counter() - start < seconds:
        body()


def measure_analyze(workload, seed, seconds, jobs, work):
    counts = Counts()
    prepared, _ = harness("prepare", workload, "--seed", seed, "--dir", work)
    expected = (work / "expected.txt").read_bytes()
    log = work / ("log.csv" if workload == "analyze-csv" else "log.tsnap")
    walls, rss = [], []

    def once():
        wall, peak, code, out = run_child([TSUFAIL, "analyze", log, "--jobs", jobs], work / "out.txt")
        counts.check(code == 0)
        counts.check(out == expected)
        walls.append(wall)
        rss.append(peak)

    repeat_for(seconds, once)
    what = f"`tsufail analyze {log.name} --jobs {jobs}` ({int(prepared['records'])} records)"
    return walls, prepared["setup_s"], rss, counts, [f"{len(walls)} runs of {what}"]


def measure_sweep(seed, seconds, jobs):
    counts = Counts()
    setup = []
    for _ in range(SWEEP_SETUP_LAUNCHES):
        wall, _, code, _ = run_child([TSUFAIL, "--version"])
        counts.check(code == 0)
        setup.append(wall)
    command = [TSUFAIL, "sweep", "--replicates", SWEEP_REPLICATES, "--seed", seed, "--jobs"]
    _, _, code, reference = run_child(command + [1])
    counts.check(code == 0)
    walls, rss = [], []

    def once():
        wall, peak, code, out = run_child(command + [jobs])
        counts.check(code == 0)
        counts.check(out == reference)
        walls.append(wall)
        rss.append(peak)

    repeat_for(seconds, once)
    return walls, setup, rss, counts, [
        f"{len(walls)} runs of `tsufail sweep --replicates {SWEEP_REPLICATES} --jobs {jobs}`; "
        f"set-up is process start-up (`tsufail --version`, {len(setup)} launches)"]


def measure_serve(seed, seconds, work):
    counts = Counts()
    prepared, _ = harness("prepare", "serve-replay", "--seed", seed, "--dir", work)
    walls, setup, rss, ingest, queries = [], [], [], [], []

    def once():
        # One replay per process: a process keeps its CPU and heap placement,
        # so separate processes sample the host's variation within a run.
        result, peak = harness("replay", "--dir", work)
        counts.add(int(result["lines"]), int(result["errors"]))
        counts.add(int(result["checks"]), int(result["check_failures"]))
        walls.append(result["wall_s"])
        setup.extend(result["setup_s"])
        rss.append(peak)
        ingest.append(result["events"] / result["ingest_s"])
        queries.extend(result["query_s"])

    repeat_for(seconds, once)
    tail = tail_percentile(len(queries))
    return walls, setup, rss, counts, [
        f"{len(walls)} replays of {int(prepared['tenants'])} tenants through one serve::Connection",
        f"ingest_events_per_s {statistics.median(ingest):.6g} events/s (median of {len(ingest)})",
        f"query_p50_ms {percentile(queries, 50) * 1e3:.6g} ms, query_p{tail:g}_ms "
        f"{percentile(queries, tail) * 1e3:.6g} ms ({len(queries)} QUERY lines)",
    ]


def measure(workload, seed, seconds, jobs, work):
    if workload == "sweep":
        walls, setup, rss, counts, lines = measure_sweep(seed, seconds, jobs)
    elif workload == "serve-replay":
        walls, setup, rss, counts, lines = measure_serve(seed, seconds, work)
    else:
        walls, setup, rss, counts, lines = measure_analyze(workload, seed, seconds, jobs, work)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(rss),
    }
    lines.append(f"wall_s min {min(walls):.6g} max {max(walls):.6g} over {len(walls)}; "
                 f"setup_s min {min(setup):.6g} max {max(setup):.6g} over {len(setup)}")
    return metrics, END_TO_END, counts, lines


# --- traced workloads ----------------------------------------------------------

class SpanLog:
    """The harness's span file, reduced to what the per-layer metrics need."""

    def __init__(self, path):
        self.durations = {}   # name -> [seconds]
        self.first = {}       # name -> (start_ns, end_ns) of its first span
        self.last_end = {}    # name -> latest end_ns
        self.children = {}    # parent id -> [(name, start_ns, end_ns)]
        self.ids = {}         # id -> name, for spans that have children
        with open(path) as spans:
            next(spans)  # "trace <id>"
            for line in spans:
                span_id, parent, name, start, end = line.rstrip("\n").split("\t")
                start, end = int(start), int(end)
                self.durations.setdefault(name, []).append((end - start) * 1e-9)
                self.first.setdefault(name, (start, end))
                self.last_end[name] = max(end, self.last_end.get(name, end))
                if parent != "0":
                    self.children.setdefault(int(parent), []).append((name, start, end))
                # A span is written when it ends, so after all of its children.
                if int(span_id) in self.children:
                    self.ids[int(span_id)] = name

    def total(self, name):
        return sum(self.durations.get(name, ()))

    def has(self, name):
        return name in self.durations

    def calls(self, name):
        values = self.durations.get(name)
        if not values:
            raise BenchError(f"the traced run recorded no {name} span")
        return values

    def children_of(self, name):
        """(parent id, children) for every span called `name`."""
        return [(pid, kids) for pid, kids in self.children.items() if self.ids.get(pid) == name]


def attributed_s(workload, spans, jobs):
    """How much of the command's wall the workload's own leaf calls into
    the layers account for.  Calls that run one at a time count
    whole.  Where they overlap, the overlapping part counts once: at
    jobs > 1 the study's tasks count as their run_study call, and the
    sweep's stages on the workers as the wall time during which any of
    them ran."""
    if workload == "sweep":
        (_, calls), = spans.children_of("sim.run_sweep")
        stages = covered_s((s, e) for name, s, e in calls if name == "sim.stage") * 1e-9
        return stages + spans.total("stats.bootstrap_mean_ci")
    if workload == "serve-replay":
        return sum(spans.total(f"serve.feed_{verb}") for verb in ("event", "seal", "query"))
    if workload == "analyze-csv":
        load = spans.total("data.read_log_file")
    else:
        load = spans.total("data.tsnap_open") + spans.total("data.tsnap_to_log")
    if jobs == 1:
        study = spans.total("data.index_build") + sum(
            spans.total(f"analysis.{task}") for task in ANALYSIS_TASKS)
    else:
        study = spans.total("analysis.run_study")
    return load + study + spans.total("report.render_study_text")


def layer_metrics(workload, spans, facts):
    """Per-layer metrics from the harness's spans and facts; also the
    sample counts of the percentile metrics, for the printed lines."""
    m = {}
    samples = {}

    def pct(metric, values, p, scale):
        if not values:
            raise BenchError(f"no samples for {metric}")
        if p == 99.0:
            p = tail_percentile(len(values))
        m[metric] = percentile(values, p) * scale
        samples[metric] = (p, len(values))

    m["util.csv_tokenize_s"] = spans.total("util.csv_tokenize")
    m["data.csv_read_s"] = spans.total("data.read_log_file")
    m["data.csv_read_mb_per_s"] = facts["csv_bytes"] / 1e6 / m["data.csv_read_s"]
    m["data.log_create_s"] = spans.total("data.log_create")
    m["data.rows_rejected"] = facts["rows_rejected"]
    m["data.tsnap_open_s"] = spans.total("data.tsnap_open")
    m["data.tsnap_to_log_s"] = spans.total("data.tsnap_to_log")
    m["data.pack_s"] = spans.total("data.pack")
    m["data.index_build_s"] = spans.total("data.index_build")
    pct("data.parse_row_p50_us", spans.calls("data.parse_record_row"), 50.0, 1e6)
    pct("data.snapshot_extend_p50_ms", spans.calls("data.snapshot_extend"), 50.0, 1e3)

    tasks = [f"analysis.{task}" for task in ANALYSIS_TASKS]
    for task in tasks:
        m[f"{task}_s"] = spans.total(task)
    # The workload's own run_study (analyze replica, sweep stages); serve
    # answers study queries inside the service, at jobs 1.
    study = "analysis.run_study" if spans.has("analysis.run_study") else "analysis.run_study_jobs1"
    m["analysis.study_s"] = spans.total(study)
    critical = 0.0
    for _, kids in spans.children_of("analysis.breakdown"):
        index = sum((e - s) for n, s, e in kids if n == "data.index_build")
        slowest = max(((e - s) for n, s, e in kids if n in tasks), default=0)
        critical += (index + slowest) * 1e-9
    m["analysis.critical_path_s"] = critical
    m["analysis.executor_overhead_s"] = (spans.total("analysis.run_study_jobs1") - m["data.index_build_s"]
                                         - sum(m[f"{task}_s"] for task in tasks))
    m["stats.select_family_s"] = spans.total("stats.select_family")
    m["stats.bootstrap_s"] = spans.total("stats.bootstrap_mean_ci")
    m["report.render_s"] = spans.total("report.render_study_text")

    m["sim.generate_s"] = spans.total("sim.generate_log")
    m["sim.study_metrics_s"] = spans.total("sim.study_metrics")
    sweep_start, sweep_end = spans.first["sim.run_sweep"]
    stages_end = spans.last_end["sim.stage"]
    m["sim.cell_phase_s"] = (stages_end - sweep_start) * 1e-9
    m["sim.reduce_s"] = (sweep_end - stages_end) * 1e-9
    m["sim.worker_busy_ratio"] = spans.total("sim.stage") / (facts["jobs"] * m["sim.cell_phase_s"])

    pct("stream.offer_p50_us", spans.calls("stream.offer_poll"), 50.0, 1e6)
    pct("serve.event_p50_us", spans.calls("serve.feed_event"), 50.0, 1e6)
    pct("serve.event_p99_us", spans.calls("serve.feed_event"), 99.0, 1e6)
    pct("serve.ingest_row_p50_us", spans.calls("serve.ingest_row"), 50.0, 1e6)
    pct("serve.seal_p50_ms", spans.calls("serve.feed_seal"), 50.0, 1e3)
    pct("serve.seal_p99_ms", spans.calls("serve.feed_seal"), 99.0, 1e3)
    pct("serve.query_hit_p50_ms", spans.calls("serve.query_hit"), 50.0, 1e3)
    pct("serve.query_miss_p50_ms", spans.calls("serve.query_miss"), 50.0, 1e3)
    pct("serve.query_miss_p99_ms", spans.calls("serve.query_miss"), 99.0, 1e3)
    # End-to-end serve figures, from the harness's untraced replay.
    pct("serve.query_p50_ms", facts["query_s"], 50.0, 1e3)
    pct("serve.query_p99_ms", facts["query_s"], 99.0, 1e3)
    m["serve.ingest_events_per_s"] = facts["events"] / facts["ingest_s"]
    hits, misses = facts["cache_hits"], facts["cache_misses"]
    m["serve.cache_hit_ratio"] = hits / (hits + misses)
    m["serve.cache_hits"] = hits
    m["serve.cache_misses"] = misses

    replica = spans.calls("replica")[0]
    m["trace.overhead_ratio"] = overhead_ratio(replica, facts["untraced_wall_s"])
    # Analyze and sweep replicas are rebuilt from public calls, so their
    # calls are set against the untraced command.  The serve replica is the
    # replay itself, traced: its per-line spans carry the tracing cost, and
    # so does its wall.
    wall = replica if workload == "serve-replay" else facts["untraced_wall_s"]
    m["trace.attributed_ratio"] = attributed_s(workload, spans, facts["jobs"]) / wall
    return m, samples


def measure_traced(workload, seed, jobs, work):
    spans_path = BUILD / f"trace-{workload}.tsv"
    facts, _ = harness("trace", workload, "--seed", seed, "--dir", work, "--jobs", jobs,
                       "--spans", spans_path)
    metrics, samples = layer_metrics(workload, SpanLog(spans_path), facts)
    counts = Counts()
    counts.add(int(facts["checks"]), int(facts["check_failures"]))
    lines = [f"spans written to {spans_path.relative_to(ROOT)}"]
    for name, (p, n) in samples.items():
        lines.append(f"{name}: p{p:g} of {n} calls")
    lines.append(f"trace.attributed_ratio {metrics['trace.attributed_ratio']:.4f} of the command's "
                 f"wall vs the {COVERAGE_TARGET} coverage target: "
                 f"{'met' if metrics['trace.attributed_ratio'] >= COVERAGE_TARGET else 'not met'}")
    lines.append(f"serve.cache: {int(facts['cache_hits'])} hits, {int(facts['cache_misses'])} misses")
    return metrics, PER_LAYER, counts, lines


# --- entry point ------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print(f"perfbench: no tsufail sources under {ROOT}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    jobs = min(4, nproc)
    # analyze-csv is the serial baseline; the others run at the host's jobs.
    workload_jobs = 1 if args.workload == "analyze-csv" else jobs
    work = BUILD / "work" / args.workload
    try:
        build(jobs)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        lines = [host_line(nproc, workload_jobs)]
        if args.trace:
            metrics, units, counts, more = measure_traced(args.workload, args.seed, workload_jobs, work)
        else:
            metrics, units, counts, more = measure(args.workload, args.seed, args.seconds,
                                                   workload_jobs, work)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines += more
    lines += [f"{name} {metrics[name]:.6g} {unit}" for name, (unit, _) in units.items()]
    lines.append(f"error_ratio {error_ratio(counts.attempted, counts.failed):g} ratio "
                 f"({counts.failed} failed of {counts.attempted} attempted)")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
