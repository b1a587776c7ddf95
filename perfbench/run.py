#!/usr/bin/env python3
"""The repository benchmark: campaign workloads through the real pi2_campaign.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --write-reference
    python3 perfbench/run.py --compare A.json B.json

Run from the repository root. The first run builds pi2_campaign and
perf_trace (perfbench/CMakeLists.txt, Release) into .bench_build/.

--trace 0 runs the campaign as a user does, repeatedly for --seconds, each
time with a fresh journal and telemetry directory, and prints the end-to-end
metrics (medians over the repetitions, timings scaled to a nominal host speed
measured by perf_calibrate next to every run). --trace 1 alternates those runs with
perf_trace's traced re-execution of the same points and prints the
per-layer metrics. Every run's per-point results are checked against the
stored reference (or, for a seed without one, against the first run), and
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count campaign points. --record PATH also writes the full record with its
provenance; --compare refuses two records whose provenance differs.
See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import layers  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CAMPAIGN = os.path.join(BUILD, "pi2", "bench", "pi2_campaign")
TRACER = os.path.join(BUILD, "perf_trace")
CALIBRATE = os.path.join(BUILD, "perf_calibrate")
REFERENCE_DIR = os.path.join(HERE, "reference")

# spec (relative to the repository root), extra pi2_campaign flags.
WORKLOADS = {
    "dumbbell_fig15": ("campaigns/fig15.json", []),
    "overload_dualq_100m": ("perfbench/specs/overload_dualq_100m.json",
                            ["--full"]),
    "resilience_telemetry": ("campaigns/fig_resilience.json",
                             ["--full", "--telemetry", "telemetry",
                              "--telemetry-interval", "0.01"]),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "events_per_cpu_s": "1/s", "peak_rss_mb": "MB"}
# `--digest` runs per campaign run. Spreading them over the measuring loop,
# instead of one burst, keeps a passing host hiccup out of their median.
SETUP_REPEATS = 4
MIN_REPEATS = 3
JOBS = os.cpu_count() or 1
# The host's speed drifts by +-30% over seconds to minutes (shared cores),
# so every campaign run is bracketed by `perf_calibrate JOBS` runs and its
# timings are scaled to a nominal host, on which perf_calibrate takes these
# times. perf_calibrate shares no code with the repository.
NOMINAL_CAL_WALL_S = 0.30
NOMINAL_CAL_CPU_S = 0.25 * JOBS
# Wall-clock cap on the measuring loop, so one run stays inside its budget
# even on a slow or loaded host.
LOOP_CAP_S = 120.0
# Provenance fields that may differ between two compared records: they name
# the code under comparison.
COMPARABLE_DIFFS = {"commit", "source_digest"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build and provenance ------------------------------------------------

def check_sources(spec):
    needed = ["CMakeLists.txt", "src", "bench/pi2_campaign.cpp",
              "perfbench/CMakeLists.txt", spec]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a PI2 source checkout (missing %s)"
                         % ", ".join(missing))


def build():
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: %s (log: %s)"
                                 % (" ".join(cmd), logfile))


def source_digest():
    """SHA-256 over the files the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "bench", "campaigns", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            if "__pycache__" in path:
                continue
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(args):
    r = subprocess.run([TRACER, "provenance"], capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("perf_trace provenance failed: " + r.stderr)
    built = json.loads(r.stdout)
    return {
        "nproc": os.cpu_count(),
        "cmake_build_type": built["build_type"],
        "compiler": built["compiler"],
        "gbench_build_type": built["gbench_build_type"],
        "commit": git_commit(),
        "source_digest": source_digest(),
        "jobs": JOBS,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---- one process ---------------------------------------------------------

def timed(cmd, cwd, stdout_path):
    """Runs cmd; returns (exit code, wall s, user+sys CPU s, peak RSS MB)."""
    with open(stdout_path, "w") as out, \
            open(stdout_path + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def campaign_args(args):
    spec, flags = WORKLOADS[args.workload]
    return (["--spec", os.path.join(ROOT, spec), "--jobs", str(JOBS),
             "--seed", str(args.seed)] + flags)


def measure_setup(args, repeats):
    """Walls of `pi2_campaign --digest` (start, load, validate, expand and
    fault-preset resolution) and the campaign digest it prints."""
    cmd = [CAMPAIGN, "--digest"] + campaign_args(args)
    walls = []
    digests = set()
    for _ in range(repeats):
        start = time.perf_counter()
        r = subprocess.run(cmd, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if r.returncode != 0:
            raise BenchError("pi2_campaign --digest failed: " + r.stderr)
        digests.add(r.stdout.strip())
    if len(digests) != 1:
        raise BenchError("pi2_campaign --digest is not stable: %s" % digests)
    return walls, digests.pop()


def calibrate(work):
    """(wall s, CPU s) of one `perf_calibrate JOBS` run."""
    rc, wall, cpu, _ = timed([CALIBRATE, str(JOBS)], work,
                             os.path.join(work, "calibrate.txt"))
    if rc != 0:
        raise BenchError("perf_calibrate failed (exit %d)" % rc)
    return wall, cpu


def tree_digest(path):
    """Digest of a directory's file names and bytes, and its total size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            data = f.read()
        size += len(data)
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest(), size


def decode_journal(path):
    r = subprocess.run([TRACER, "decode", path], capture_output=True,
                       text=True)
    if r.returncode != 0:
        return None
    return json.loads(r.stdout)["points"]


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


class Run:
    """One campaign execution in a fresh directory, and its outputs."""

    def __init__(self, rundir, cmd, traced):
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        self.dir = rundir
        self.traced = traced
        self.rc, self.wall, self.cpu, self.rss = timed(
            cmd + ["--journal", "campaign.journal", "--json", "points.json"],
            rundir, os.path.join(rundir, "stdout.txt"))
        journal = os.path.join(rundir, "campaign.journal")
        self.journal_bytes = (os.path.getsize(journal)
                              if os.path.exists(journal) else 0)
        self.points = decode_journal(journal) if self.journal_bytes else None
        self.records = load_json(os.path.join(rundir, "points.json"))
        self.trace = (load_json(os.path.join(rundir, "spans.json"))
                      if traced else None)
        tel = os.path.join(rundir, "telemetry")
        self.telemetry = tree_digest(tel) if os.path.isdir(tel) else None
        with open(os.path.join(rundir, "stdout.txt")) as f:
            self.failure_lines = [ln for ln in f
                                  if ln.startswith("!!") or "UNHEALTHY" in ln]

    def results(self):
        """What the output check compares: per-point keys, digests, records."""
        return {"points": [{"key": p["key"], "digest": p["digest"]}
                           for p in self.points or []],
                "records": self.records}

    def events(self):
        return sum(p["events"] for p in self.points or [])


def failed_points(run, expected, n_points):
    """Indices of the run's failed points (a bad run fails all of them)."""
    if (run.rc != 0 or run.points is None or run.records is None
            or len(run.points) != n_points or len(run.records) != n_points
            or len(expected["points"]) != n_points or run.failure_lines
            or (run.traced and (run.trace is None
                                or not run.trace["decode_ok"]))):
        return set(range(n_points))
    bad = set()
    got = run.results()
    for i, p in enumerate(run.points):
        if (p["clamped_events"] or p["guard_events"]
                or p["violations_outside"]):
            bad.add(i)
        if got["points"][i] != expected["points"][i]:
            bad.add(i)
        if got["records"][i] != expected["records"][i]:
            bad.add(i)
        if run.traced:
            tp = run.trace["points"][i]
            if (tp["status"] != "ok" or not tp["baseline_match"]
                    or tp["digest"] != p["digest"]):
                bad.add(i)
    return bad


# ---- the benchmark -------------------------------------------------------

def reference_path(workload, seed):
    return os.path.join(REFERENCE_DIR, "%s.seed%d.json" % (workload, seed))


def benchmark(args):
    spec, _ = WORKLOADS[args.workload]
    check_sources(spec)
    build()
    prov = provenance(args)
    _, campaign_digest = measure_setup(args, 1)

    work = os.path.join(BUILD, "runs", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ref_file = reference_path(args.workload, args.seed)
    expected = load_json(ref_file) if os.path.exists(ref_file) else None
    if expected is not None and expected["digest"] != campaign_digest:
        raise BenchError("%s is for campaign digest %s, not %s"
                         % (ref_file, expected["digest"], campaign_digest))

    untraced_cmd = [CAMPAIGN] + campaign_args(args)
    traced_cmd = ([TRACER, "run", "--spans", "spans.json"]
                  + campaign_args(args))
    runs = []
    # One calibration before every round of runs and one after the last;
    # a run is scaled by the mean of the calibrations around it.
    cals = []
    setup = []  # (wall, index of the calibration just before it)
    n_points = None
    attempted = 0
    failed = 0
    artifacts = None
    loop_start = time.perf_counter()
    measured = 0.0
    while (len([r for r in runs if not r.traced]) < MIN_REPEATS
           or measured < args.seconds):
        if time.perf_counter() - loop_start > LOOP_CAP_S:
            break
        cals.append(calibrate(work))
        walls, digest = measure_setup(args, SETUP_REPEATS)
        if digest != campaign_digest:
            raise BenchError("campaign digest changed between runs")
        setup += [(w, len(cals) - 1) for w in walls]
        kinds = [False, True] if args.trace else [False]
        for traced in kinds:
            run = Run(os.path.join(work, "run"),
                      traced_cmd if traced else untraced_cmd, traced)
            run.cal = len(cals) - 1
            measured += run.wall
            if n_points is None:
                n_points = len(run.points or [])
                if n_points == 0:
                    raise BenchError("first run produced no points (exit %d)"
                                     "; see %s" % (run.rc, run.dir))
                if expected is None:
                    expected = dict(run.results(), digest=campaign_digest)
                    expected_source = "the first run"
                else:
                    expected_source = os.path.relpath(ref_file, ROOT)
            bad = failed_points(run, expected, n_points)
            if run.telemetry is not None:
                if artifacts is None:
                    artifacts = run.telemetry[0]
                elif run.telemetry[0] != artifacts:
                    bad = set(range(n_points))
                    log("telemetry artifacts differ from the first run's")
            if bad:
                log("%s run %d: %d failed point(s) vs %s: %s"
                    % ("traced" if traced else "untraced", len(runs),
                       len(bad), expected_source, sorted(bad)[:10]))
            attempted += n_points
            failed += len(bad)
            runs.append(run)
    cals.append(calibrate(work))
    shutil.rmtree(work, ignore_errors=True)

    def wall_scale(i):
        return 2 * NOMINAL_CAL_WALL_S / (cals[i][0] + cals[i + 1][0])

    def cpu_scale(i):
        return 2 * NOMINAL_CAL_CPU_S / (cals[i][1] + cals[i + 1][1])

    plain = [r for r in runs if not r.traced]
    walls = [r.wall * wall_scale(r.cal) for r in plain]
    cpus = [r.cpu * cpu_scale(r.cal) for r in plain]
    e2e = {
        "setup_s": layers.median([w * NOMINAL_CAL_WALL_S / cals[i][0]
                                  for w, i in setup]),
        "wall_s": layers.median(walls),
        "cpu_s": layers.median(cpus),
        "events_per_cpu_s": layers.median([r.events() / c
                                           for r, c in zip(plain, cpus)]),
        "peak_rss_mb": layers.median([r.rss for r in plain]),
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    raw_wall = layers.median([r.wall for r in plain])
    extra = {"point_failure_rate": (failed / attempted, "1"),
             "repetitions": (len(plain), "count"),
             "setup_s_raw": (layers.median([w for w, _ in setup]), "s"),
             "wall_s_raw": (raw_wall, "s"),
             "cpu_s_raw": (layers.median([r.cpu for r in plain]), "s"),
             "calibrate_wall_s": (layers.median([c[0] for c in cals]), "s"),
             "calibrate_cpu_s": (layers.median([c[1] for c in cals]), "s")}
    hi = layers.high_percentile(walls)
    if hi is not None:
        extra["wall_s_p%d" % hi[0]] = (hi[1], "s")
    if args.trace:
        metrics = per_layer(runs, raw_wall)
    check_declared(metrics, args.trace)
    return {
        "provenance": prov,
        "campaign_digest": campaign_digest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
    }


def check_declared(metrics, trace):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if declared is None:
        raise BenchError("cannot read BENCHMARK.json")
    want = {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        raise BenchError("metrics differ from BENCHMARK.json: missing %s, "
                         "undeclared %s" % (sorted(set(want) - set(got)),
                                            sorted(set(got) - set(want))))


def per_layer(runs, untraced_wall):
    """Medians over the traced runs; exact counts must agree across them."""
    per_run = []
    traced_walls = []
    for run in (r for r in runs if r.traced and r.trace is not None):
        tel_bytes = run.telemetry[1] if run.telemetry else 0
        per_run.append(layers.layer_metrics(run.trace, run.journal_bytes,
                                            tel_bytes))
        # The traced campaign's own wall: the process minus the passes it
        # runs after the campaign (journal decode, telemetry baseline).
        tree = layers.SpanTree(run.trace["spans"])
        after = (tree.total_s("durable.decode_pass")
                 + tree.total_s("telemetry.baseline_pass"))
        traced_walls.append(run.wall - after)
    if not per_run:
        raise BenchError("no traced run produced spans")
    metrics = {}
    for name, (_, unit) in per_run[0].items():
        values = [m[name][0] for m in per_run]
        if unit == "count":
            if len(set(values)) != 1:
                raise BenchError("count %s differs across traced runs: %s"
                                 % (name, values))
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (layers.median(values), unit)
    # Point durations pool over the traced runs: a 12-point campaign alone
    # has no percentile above p16 with ten samples beyond it.
    metrics.update(layers.point_time_metrics(
        [d for run in runs if run.traced and run.trace is not None
         for d in layers.point_durations_s(run.trace)]))
    metrics["trace.overhead_s"] = (layers.median(traced_walls)
                                   - untraced_wall, "s")
    return metrics


# ---- records -------------------------------------------------------------

def write_reference(args):
    """Stores the per-point results of one untraced run at this seed."""
    spec, _ = WORKLOADS[args.workload]
    check_sources(spec)
    build()
    _, campaign_digest = measure_setup(args, 1)
    work = os.path.join(BUILD, "runs", "reference-%d" % os.getpid())
    run = Run(work, [CAMPAIGN] + campaign_args(args), False)
    shutil.rmtree(work, ignore_errors=True)
    if run.rc != 0 or run.points is None or run.records is None:
        raise BenchError("reference run failed (exit %d)" % run.rc)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    ref = dict(run.results(), digest=campaign_digest)
    with open(reference_path(args.workload, args.seed), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + reference_path(args.workload, args.seed))


def compare(path_a, path_b):
    a, b = load_json(path_a), load_json(path_b)
    if a is None or b is None:
        raise BenchError("cannot read both records")
    differs = sorted(k for k in set(a["provenance"]) | set(b["provenance"])
                     if k not in COMPARABLE_DIFFS
                     and a["provenance"].get(k) != b["provenance"].get(k))
    if differs:
        raise BenchError("refusing to compare: provenance differs in "
                         + ", ".join("%s (%r vs %r)" % (
                             k, a["provenance"].get(k),
                             b["provenance"].get(k)) for k in differs))
    print("%-28s %14s %14s %9s" % ("metric", "A", "B", "B/A-1"))
    for name in sorted(a["metrics"]):
        if name not in b["metrics"]:
            continue
        va, unit = a["metrics"][name]["value"], a["metrics"][name]["unit"]
        vb = b["metrics"][name]["value"]
        change = "%+8.1f%%" % (100.0 * (vb / va - 1)) if va else "-"
        print("%-28s %14.6g %14.6g %9s  %s" % (name, va, vb, change, unit))


def print_table(record):
    prov = record["provenance"]
    print("# perfbench %s  seed %d  jobs %d  nproc %d  %s %s  gbench %s  "
          "commit %s" % (prov["workload"], prov["seed"], prov["jobs"],
                         prov["nproc"], prov["cmake_build_type"],
                         prov["compiler"], prov["gbench_build_type"],
                         prov["commit"] or prov["source_digest"][:16]))
    rows = dict(record["metrics"], **record["extra"])
    for name, (value, unit) in rows.items():
        print("%-28s %16.6g %s" % (name, value, unit))
    print("# points attempted %d, failed %d" % (record["attempted"],
                                                 record["failed"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", metavar="PATH",
                   help="also write the full record (with provenance)")
    p.add_argument("--write-reference", action="store_true",
                   help="store this seed's per-point results as reference")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    try:
        if args.compare:
            compare(*args.compare)
            return 0
        if args.workload is None:
            p.error("--workload is required")
        if args.write_reference:
            write_reference(args)
            return 0
        record = benchmark(args)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 2
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in record["metrics"].items()}
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print_table(dict(record, metrics={
        k: (m["value"], m["unit"]) for k, m in record["metrics"].items()}))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
