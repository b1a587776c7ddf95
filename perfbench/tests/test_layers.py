"""Tests for the benchmark's own arithmetic (perfbench/layers.py).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import layers  # noqa: E402

MS = 1_000_000  # ns


def span(sid, name, start_ms, end_ms, parent=-1, point=-1, thread=0):
    return {"id": sid, "name": name, "start_ns": start_ms * MS,
            "end_ns": end_ms * MS, "parent": parent, "point": point,
            "thread": thread}


class BusyIdleTail(unittest.TestCase):
    def test_two_workers_with_a_straggler(self):
        # Window 0..100 ms, 2 workers. Worker 0 runs 0-40 and 40-100; worker
        # 1 runs 0-30 and then has nothing left: 70 ms with one point running.
        points = [span(1, "runner.point", 0, 40),
                  span(2, "runner.point", 40, 100),
                  span(3, "runner.point", 0, 30)]
        busy, idle, tail = layers.busy_idle_tail(points, (0, 100 * MS), 2)
        self.assertEqual(busy, 130 * MS)
        self.assertEqual(idle, 2 * 100 * MS - 130 * MS)
        self.assertEqual(tail, 70 * MS)

    def test_ramp_up_and_empty_end_count_as_tail(self):
        # Nothing runs in 0-10 and 90-100; both workers busy in between.
        points = [span(1, "runner.point", 10, 90),
                  span(2, "runner.point", 10, 90)]
        busy, idle, tail = layers.busy_idle_tail(points, (0, 100 * MS), 2)
        self.assertEqual(busy, 160 * MS)
        self.assertEqual(idle, 40 * MS)
        self.assertEqual(tail, 20 * MS)

    def test_back_to_back_points_leave_no_gap(self):
        # One worker; the second point starts the instant the first ends.
        points = [span(1, "runner.point", 0, 50),
                  span(2, "runner.point", 50, 100)]
        busy, idle, tail = layers.busy_idle_tail(points, (0, 100 * MS), 1)
        self.assertEqual((busy, idle, tail), (100 * MS, 0, 0))

    def test_full_concurrency_has_no_tail(self):
        points = [span(i, "runner.point", 0, 100) for i in range(4)]
        _, idle, tail = layers.busy_idle_tail(points, (0, 100 * MS), 4)
        self.assertEqual((idle, tail), (0, 0))


class SelfTime(unittest.TestCase):
    def test_span_minus_children(self):
        parent = span(0, "runner.point", 0, 100)
        kids = [span(1, "a", 10, 30, parent=0), span(2, "b", 50, 90, parent=0)]
        self.assertEqual(layers.self_time_ns(parent, kids), 40 * MS)

    def test_overlapping_children_count_once(self):
        parent = span(0, "campaign.run", 0, 100)
        kids = [span(1, "a", 10, 60, parent=0), span(2, "b", 40, 80, parent=0)]
        self.assertEqual(layers.self_time_ns(parent, kids), 30 * MS)

    def test_children_are_clipped_to_the_span(self):
        parent = span(0, "p", 20, 60)
        kids = [span(1, "a", 0, 30, parent=0), span(2, "b", 50, 200, parent=0),
                span(3, "c", 70, 80, parent=0)]
        self.assertEqual(layers.self_time_ns(parent, kids), 20 * MS)

    def test_no_children(self):
        self.assertEqual(layers.self_time_ns(span(0, "p", 5, 7), []), 2 * MS)


class HighPercentile(unittest.TestCase):
    def test_leaves_at_least_ten_samples_beyond(self):
        xs = list(range(1, 101))  # 100 samples
        p, value = layers.high_percentile(xs)
        self.assertEqual((p, value), (90, 90))
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_small_campaigns(self):
        # 12 points: rank ceil(p*12/100) must leave 10 above, so rank <= 2.
        self.assertEqual(layers.high_percentile(list(range(12)))[0], 16)
        # 36 points: rank <= 26 -> p <= 72.
        self.assertEqual(layers.high_percentile(list(range(36))), (72, 25))
        # 45 points: rank <= 35 -> p <= 77.
        self.assertEqual(layers.high_percentile(list(range(45)))[0], 77)

    def test_too_few_samples(self):
        self.assertIsNone(layers.high_percentile(list(range(10))))
        self.assertIsNotNone(layers.high_percentile(list(range(11))))

    def test_point_time_metrics_report_the_sample_count(self):
        m = layers.point_time_metrics([float(x) for x in range(120)])
        self.assertEqual(m["runner.point_samples"], (120, "count"))
        self.assertEqual(m["runner.point_s_hi_pct"], (91, "%"))
        self.assertEqual(m["runner.point_s_hi"], (109.0, "s"))
        self.assertEqual(m["runner.point_s_p50"], (59.5, "s"))

    def test_too_few_samples_fall_back_to_the_median(self):
        m = layers.point_time_metrics([1.0, 2.0, 3.0])
        self.assertEqual(m["runner.point_s_hi_pct"], (50, "%"))
        self.assertEqual(m["runner.point_s_hi"], (2.0, "s"))

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
        self.assertEqual(layers.high_percentile(xs),
                         layers.high_percentile(sorted(xs)))


class Units(unittest.TestCase):
    def test_conversions(self):
        self.assertEqual(layers.convert(1.5, "s", "ms"), 1500.0)
        self.assertEqual(layers.convert(2500, "us", "ms"), 2.5)
        self.assertAlmostEqual(layers.convert(1_000_000, "ns", "ms"), 1.0)
        self.assertAlmostEqual(layers.convert(3, "ms", "ns"), 3_000_000)
        self.assertAlmostEqual(layers.convert(250, "ms", "s"), 0.25)

    def test_round_trip(self):
        for a in layers.UNIT_SECONDS:
            for b in layers.UNIT_SECONDS:
                self.assertAlmostEqual(
                    layers.convert(layers.convert(7.25, a, b), b, a), 7.25)

    def test_span_duration_is_seconds(self):
        self.assertAlmostEqual(layers.duration_s(span(0, "x", 0, 1500)), 1.5)


class LayerMetrics(unittest.TestCase):
    def trace(self, baseline=False):
        spans = [span(0, "campaign.setup", 0, 4),
                 span(1, "campaign.load_spec", 0, 1, parent=0),
                 span(2, "campaign.expand", 1, 3, parent=0),
                 span(3, "campaign.run", 5, 200),
                 span(4, "runner.run", 10, 110, parent=3),
                 span(5, "runner.point", 10, 60, parent=4, point=0),
                 span(6, "scenario.run_dumbbell", 12, 58, parent=5, point=0),
                 span(7, "runner.point", 10, 110, parent=4, point=1),
                 span(8, "scenario.run_dumbbell", 10, 110, parent=7, point=1),
                 span(9, "durable.encode_result", 60, 61, parent=4, point=0),
                 span(10, "durable.json_commit", 110, 112, parent=3)]
        if baseline:
            spans += [span(11, "telemetry.baseline_pass", 300, 400),
                      span(12, "baseline.point", 300, 340, parent=11),
                      span(13, "scenario.run_dumbbell", 300, 340, parent=12),
                      span(14, "baseline.point", 300, 380, parent=11),
                      span(15, "scenario.run_dumbbell", 300, 380, parent=14)]
        counts = {name: 0 for name in layers.COUNT_METRICS}
        counts.update({"sim.events": 1000, "net.enqueued": 100})
        return {"jobs": 2, "counts": counts, "spans": spans,
                "points": [{"attempts": 1}, {"attempts": 2}]}

    def test_metrics_from_synthetic_spans(self):
        m = layers.layer_metrics(self.trace(), journal_bytes=10,
                                 telemetry_bytes=0)
        self.assertAlmostEqual(m["campaign.setup_ms"][0], 3.0)
        self.assertAlmostEqual(m["runner.busy_s"][0], 0.150)
        self.assertAlmostEqual(m["runner.idle_s"][0], 0.050)
        self.assertAlmostEqual(m["runner.tail_s"][0], 0.050)
        self.assertAlmostEqual(m["runner.point_self_s"][0], 0.004)
        self.assertEqual(m["runner.retries"][0], 1)
        self.assertAlmostEqual(m["scenario.run_s"][0], 0.146)
        self.assertAlmostEqual(m["sim.ns_per_event"][0], 146_000.0)
        self.assertAlmostEqual(m["net.ns_per_packet"][0], 1_460_000.0)
        self.assertAlmostEqual(m["durable.encode_us"][0], 1000.0)
        self.assertAlmostEqual(m["durable.json_commit_ms"][0], 2.0)
        self.assertEqual(m["telemetry.overhead_s"][0], 0.0)
        self.assertEqual(m["durable.decode_us"][0], 0.0)

    def test_telemetry_overhead_is_point_time_minus_baseline(self):
        m = layers.layer_metrics(self.trace(baseline=True), journal_bytes=10,
                                 telemetry_bytes=5)
        # Points with a Recorder: 50 + 100 ms; without: 40 + 80 ms. The
        # baseline's scenario spans must not count toward scenario.run_s.
        self.assertAlmostEqual(m["telemetry.overhead_s"][0], 0.030)
        self.assertAlmostEqual(m["scenario.run_s"][0], 0.146)


if __name__ == "__main__":
    unittest.main()
