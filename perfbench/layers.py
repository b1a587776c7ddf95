"""Arithmetic behind the benchmark's per-layer metrics.

Everything here is a pure function of span lists and numbers, so
tests/test_layers.py can check it on synthetic spans. A span is a dict with
the keys perf_trace writes: id, name, start_ns, end_ns, parent, point,
thread.
"""

# Seconds per unit, for the time units the benchmark reports.
UNIT_SECONDS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


def convert(value, from_unit, to_unit):
    """Converts a time between units of UNIT_SECONDS."""
    return value * UNIT_SECONDS[from_unit] / UNIT_SECONDS[to_unit]


def duration_s(span):
    return convert(span["end_ns"] - span["start_ns"], "ns", "s")


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time_ns(span, children):
    """A span's duration minus the part of it its children cover.

    Children are clipped to the span, and overlapping children (worker
    threads) are counted once.
    """
    start, end = span["start_ns"], span["end_ns"]
    covered = union_length(
        (max(start, c["start_ns"]), min(end, c["end_ns"]))
        for c in children
        if c["end_ns"] > start and c["start_ns"] < end)
    return (end - start) - covered


def busy_idle_tail(point_spans, window, jobs):
    """Runner accounting over `window` = (start_ns, end_ns) for `jobs` workers.

    busy: summed point time; idle: jobs x makespan - busy; tail: time in the
    window during which fewer than `jobs` points are running. All in ns.
    """
    w_start, w_end = window
    busy = sum(s["end_ns"] - s["start_ns"] for s in point_spans)
    idle = jobs * (w_end - w_start) - busy
    edges = []
    for s in point_spans:
        edges.append((max(s["start_ns"], w_start), 1))
        edges.append((min(s["end_ns"], w_end), -1))
    edges.sort(key=lambda e: (e[0], e[1]))
    tail = 0
    running = 0
    prev = w_start
    for t, delta in edges:
        if running < jobs:
            tail += t - prev
        running += delta
        prev = t
    if running < jobs:
        tail += w_end - prev
    return busy, idle, tail


def high_percentile(samples, min_beyond=10):
    """The highest whole percentile with at least `min_beyond` samples beyond it.

    Uses nearest-rank percentiles: the p-th percentile of n sorted samples is
    the one at 1-based rank ceil(p * n / 100), and the samples beyond it are
    the n - rank ranked above it. Returns (p, value), or None when no
    percentile from 1 to 99 leaves `min_beyond` samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in range(1, 100):
        rank = -(-p * n // 100)
        if rank >= 1 and n - rank >= min_beyond:
            best = (p, xs[rank - 1])
    return best


def median(values):
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


class SpanTree:
    """Index over one traced run's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name, parent_name=None):
        out = [s for s in self.spans if s["name"] == name]
        if parent_name is not None:
            out = [s for s in out if s["parent"] >= 0
                   and self.spans[s["parent"]]["name"] == parent_name]
        return out

    def kids(self, span):
        return self.children.get(span["id"], [])

    def total_s(self, name, parent_name=None):
        return sum(duration_s(s) for s in self.named(name, parent_name))

    def mean_s(self, name):
        spans = self.named(name)
        return self.total_s(name) / len(spans) if spans else 0.0


def layer_metrics(trace, journal_bytes, telemetry_bytes):
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    `trace` is perf_trace's spans file; the byte sizes come from the run
    directory.
    """
    tree = SpanTree(trace["spans"])
    counts = trace["counts"]
    jobs = trace["jobs"]
    points = trace["points"]

    setup = tree.named("campaign.setup")[0]
    setup_s = sum(duration_s(c) for c in tree.kids(setup))

    runner = tree.named("runner.run")[0]
    point_spans = tree.named("runner.point", "runner.run")
    busy, idle, tail = busy_idle_tail(
        point_spans, (runner["start_ns"], runner["end_ns"]), jobs)
    point_s = [duration_s(s) for s in point_spans]
    point_self_s = sum(convert(self_time_ns(s, tree.kids(s)), "ns", "s")
                       for s in point_spans)

    run_s = tree.total_s("scenario.run_dumbbell", "runner.point")
    baseline_points = tree.named("baseline.point")
    overhead_s = (sum(point_s) - sum(duration_s(s) for s in baseline_points)
                  if baseline_points else 0.0)
    aggregate_s = (tree.total_s("telemetry.merge_from")
                   + tree.total_s("telemetry.aggregate_export"))
    commit = tree.named("durable.json_commit")

    events = counts["sim.events"]
    enqueued = counts["net.enqueued"]
    m = {
        "campaign.setup_ms": (convert(setup_s, "s", "ms"), "ms"),
        "campaign.points": (len(points), "count"),
        "runner.busy_s": (convert(busy, "ns", "s"), "s"),
        "runner.idle_s": (convert(idle, "ns", "s"), "s"),
        "runner.tail_s": (convert(tail, "ns", "s"), "s"),
        "runner.point_self_s": (point_self_s, "s"),
        "runner.retries": (sum(p["attempts"] - 1 for p in points), "count"),
        "scenario.run_s": (run_s, "s"),
        "sim.ns_per_event": (convert(run_s, "s", "ns") / max(events, 1), "ns"),
        "net.ns_per_packet": (convert(run_s, "s", "ns") / max(enqueued, 1),
                              "ns"),
        "telemetry.overhead_s": (overhead_s, "s"),
        "telemetry.bytes": (telemetry_bytes, "B"),
        "telemetry.aggregate_ms": (convert(aggregate_s, "s", "ms"), "ms"),
        "durable.encode_us": (convert(tree.mean_s("durable.encode_result"),
                                      "s", "us"), "us"),
        "durable.append_ms": (convert(tree.mean_s("durable.append_point"),
                                      "s", "ms"), "ms"),
        "durable.journal_bytes": (journal_bytes, "B"),
        "durable.json_commit_ms": (
            convert(sum(duration_s(s) for s in commit), "s", "ms"), "ms"),
        "durable.decode_us": (convert(tree.mean_s("durable.decode_result"),
                                      "s", "us"), "us"),
    }
    for name in COUNT_METRICS:
        m[name] = (counts[name], "count")
    m.update(point_time_metrics(point_s))
    return m


def point_durations_s(trace):
    tree = SpanTree(trace["spans"])
    return [duration_s(s) for s in tree.named("runner.point", "runner.run")]


def point_time_metrics(point_s):
    """Median and high percentile of point durations, with the sample count.

    Falls back to the median when too few samples leave ten beyond any
    percentile.
    """
    hi = high_percentile(point_s) or (50, median(point_s))
    return {
        "runner.point_s_p50": (median(point_s), "s"),
        "runner.point_s_hi": (hi[1], "s"),
        "runner.point_s_hi_pct": (hi[0], "%"),
        "runner.point_samples": (len(point_s), "count"),
    }


# Exact counts perf_trace sums from each point's RunResult (and Recorder).
COUNT_METRICS = [
    "sim.events", "sim.clamped_events",
    "net.enqueued", "net.forwarded", "net.drops_aqm", "net.drops_tail",
    "net.marks", "net.band_l_enqueued", "net.band_c_enqueued",
    "aqm.guard_events",
    "tcp.retransmits", "tcp.timeouts",
    "fluid.ticks",
    "faults.injected", "faults.invariant_checks", "faults.violations",
    "telemetry.samples",
]

