"""Unit tests of the benchmark's reporting helpers (perfbench/stats.py).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_matches_linear_interpolation(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 50), 3.0)
        self.assertEqual(stats.percentile(xs, 100), 5.0)
        self.assertAlmostEqual(stats.percentile(xs, 90), 4.6)
        self.assertAlmostEqual(stats.percentile([1.0, 2.0], 25), 1.25)

    def test_median_agrees_with_statistics(self):
        for n in range(1, 40):
            xs = [(i * 7919) % 101 / 3.0 for i in range(n)]
            self.assertAlmostEqual(stats.percentile(xs, 50),
                                   statistics.median(xs))

    def test_single_sample_and_errors(self):
        self.assertEqual(stats.percentile([7.5], 95), 7.5)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_input_is_not_reordered(self):
        xs = [3.0, 1.0, 2.0]
        stats.percentile(xs, 50)
        self.assertEqual(xs, [3.0, 1.0, 2.0])


class TailTest(unittest.TestCase):
    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(stats.beyond(200, 95), 10)
        self.assertEqual(stats.beyond(199, 95), 10)
        self.assertEqual(stats.beyond(190, 95), 10)
        self.assertEqual(stats.beyond(180, 95), 9)
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(0, 50), 0)
        # Exhaustively: the count of sorted indices strictly above the
        # interpolation position (n - 1) * q / 100.
        for n in range(1, 300):
            for q in stats.TAIL_PERCENTILES:
                pos = (n - 1) * q / 100.0
                want = sum(1 for i in range(n) if i > pos + 1e-9)
                self.assertEqual(stats.beyond(n, q), want, (n, q))

    def test_tail_needs_ten_samples_beyond(self):
        xs = list(range(1, 201))
        q, v = stats.tail_percentile(xs)
        self.assertEqual(q, 95)
        self.assertAlmostEqual(v, stats.percentile(xs, 95))
        self.assertEqual(stats.tail_percentile(list(range(100)))[0], 90)
        self.assertEqual(stats.tail_percentile(list(range(1000)))[0], 99)
        self.assertIsNone(stats.tail_percentile(list(range(15))))

    def test_describe_reports_median_tail_and_count(self):
        text = stats.describe_samples([float(i) for i in range(1, 201)], "ms")
        self.assertIn("100.5 ms", text)
        self.assertIn("p95", text)
        self.assertIn("n=200", text)
        self.assertEqual(stats.describe_samples([2.0, 4.0], "s"),
                         "3.000 s (n=2)")

    def test_ratio_shows_numerator_and_denominator(self):
        self.assertEqual(stats.describe_ratio(1.0, 4.0),
                         "0.2500 (1.000 / 4.000)")


class EndToEndTest(unittest.TestCase):
    def raw(self, n, slowdown=1.0):
        return {"op_ms": [float(i) for i in range(1, n + 1)],
                "op_ms_host": [slowdown] * n,
                "events_per_s": [3.0, 1.0, 2.0],
                "events_per_s_host": [slowdown] * 3,
                "ops": n, "wall_s": [2.0], "wall_s_host": [slowdown],
                "setup_s": [0.5, 0.25, 0.75], "setup_s_host": [slowdown] * 3,
                "peak_rss_mib": 12.5}

    def test_metrics(self):
        m, problems = stats.end_to_end(self.raw(200))
        self.assertEqual(problems, [])
        self.assertEqual(m["events_per_s"], 2.0)
        self.assertEqual(m["ops_per_s"], 100.0)
        self.assertEqual(m["op_p50_ms"], 100.5)
        self.assertEqual(m["setup_s"], 0.5)
        self.assertEqual([k for k, _ in stats.END_TO_END], list(m))

    def test_host_times_are_taken_at_reference_speed(self):
        m, _ = stats.end_to_end(self.raw(200, slowdown=2.0))
        self.assertEqual(m["events_per_s"], 4.0)
        self.assertEqual(m["ops_per_s"], 200.0)
        self.assertEqual(m["op_p50_ms"], 50.25)
        self.assertEqual(m["setup_s"], 0.25)
        self.assertEqual(m["peak_rss_mib"], 12.5)
        measured, _ = stats.end_to_end(self.raw(200, slowdown=2.0),
                                       scaled=False)
        self.assertEqual(measured, stats.end_to_end(self.raw(200))[0])

    def test_each_sample_scales_by_its_own_slowdown(self):
        raw = {"t": [10.0, 10.0], "t_host": [1.0, 0.5]}
        self.assertEqual(stats.host_scaled(raw, "t"), [10.0, 20.0])
        self.assertEqual(stats.host_scaled(raw, "t", rate=True), [10.0, 5.0])

    def test_p95_without_ten_beyond_is_a_problem(self):
        _, problems = stats.end_to_end(self.raw(150))
        self.assertTrue(any("op_p95_ms" in p for p in problems))
        _, problems = stats.end_to_end(self.raw(150), smoke=True)
        self.assertEqual(problems, [])


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        rows = [(0, "point", -1, 0, 100), (1, "construct", 0, 0, 10),
                (2, "measure", 0, 10, 90), (3, "point", -1, 100, 150),
                (4, "measure", 3, 100, 140)]
        t = stats.span_self_times(rows)
        self.assertEqual(t["point"][0], 2)
        self.assertAlmostEqual(t["point"][1], 150e-9)
        self.assertAlmostEqual(t["point"][2], (100 - 90 + 50 - 40) * 1e-9)
        self.assertAlmostEqual(t["measure"][2], 120e-9)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_stats_computes(self):
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(stats.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, u, *_ in stats.PER_LAYER])
        gated = [w["name"] for w in spec["workloads"]]
        self.assertEqual(gated, [w for w in stats.WORKLOADS if w in gated])
        self.assertIn("paper_sweep", gated)
        self.assertIn("daemon_mix", gated)

    def test_every_layer_row_names_a_workload(self):
        for name, _, workload, _, statistic in stats.PER_LAYER:
            self.assertIn(workload, stats.WORKLOADS, name)
            self.assertIn(statistic, ("median", "ratio", "p50", "p95"), name)


if __name__ == "__main__":
    unittest.main()
