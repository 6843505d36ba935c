"""Self-checks of the benchmark's own arithmetic: the tail-percentile rule,
span self times and the timed-region accounting, fail_ratio counting, the
compare verdict and the derived runner metrics.

Run with: python3 perfbench/run.py --selftest
"""

import statistics
import unittest

import run
import stats


def span(start, end, parent=-1, name="s"):
    return {"name": name, "start_ms": start, "end_ms": end, "parent": parent}


class TailPercentileTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertEqual(stats.samples_beyond(999, 0.99), 9)
        self.assertEqual(stats.samples_beyond(100, 0.90), 10)
        self.assertEqual(stats.samples_beyond(1200, 0.99), 12)

    def test_p99_needs_1000_samples(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(999)), 0.99)
        value, count = stats.tail_percentile(list(range(1000)), 0.99)
        self.assertEqual(count, 1000)
        self.assertAlmostEqual(value, 0.99 * 999)

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([3, 1, 2], 0.5), 2)
        self.assertAlmostEqual(stats.percentile([0, 10], 0.25), 2.5)
        self.assertEqual(stats.percentile([7], 0.99), 7)

    def test_quartiles_match_statistics(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(stats.quartiles(xs),
                         tuple(statistics.quantiles(xs, n=4)))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_interval(self):
        spans = [span(0, 10), span(1, 3, 0), span(2, 5, 0), span(8, 12, 0)]
        selfs = stats.self_times(spans)
        # Children cover [1, 5] and [8, 10] of the parent: 6 of 10 ms.
        self.assertAlmostEqual(selfs[0], 4)
        self.assertEqual(selfs[1:], [2, 3, 4])

    def test_nested_self_times_sum_to_root(self):
        spans = [span(0, 100, name="root"), span(10, 60, 0),
                 span(20, 30, 1), span(70, 90, 0), span(200, 210)]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(sum(selfs[:4]), 100)
        self.assertAlmostEqual(sum(selfs), 110)

    def test_accounted_ratio_counts_named_spans_only(self):
        # A pipeline span (its self time is what nothing else explains)
        # over two runner spans, plus a segmentation span timed elsewhere.
        spans = [span(0, 100, name="pipe"), span(5, 45, 0, "runner.run"),
                 span(50, 90, 0, "runner.run"), span(200, 212, -1, "seg")]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(
            stats.accounted_ratio(spans, selfs, ("runner.run", "seg"), 100),
            0.92)
        self.assertAlmostEqual(
            stats.accounted_ratio(spans, selfs, ("runner.run",), 80), 1.0)
        with self.assertRaises(ValueError):
            stats.accounted_ratio(spans, selfs, ("seg",), 0)

    def test_leaf_self_time_is_duration(self):
        self.assertEqual(stats.self_times([span(5, 7.5)]), [2.5])


class FailRatioTest(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.fail_ratio(34, 0), 0)
        self.assertAlmostEqual(stats.fail_ratio(1200 + 48, 3), 3 / 1248)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_ratio(5, 6)


class VerdictTest(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_better(self):
        change = [x * 1.2 for x in self.parent]
        v = stats.verdict(self.parent, change, "higher", 0.15)
        self.assertEqual(v["verdict"], "better")
        self.assertEqual(v["won"], 1.0)

    def test_worse(self):
        change = [x * 1.3 for x in self.parent]
        self.assertEqual(
            stats.verdict(self.parent, change, "lower", 0.15)["verdict"],
            "worse")

    def test_unchanged(self):
        change = list(reversed(self.parent))
        self.assertEqual(
            stats.verdict(self.parent, change, "lower", 0.15)["verdict"],
            "unchanged")

    def test_unresolved_when_parent_spreads_wider_than_bound(self):
        parent = [50, 150, 60, 140, 100, 70, 130, 90, 110, 100]
        change = list(reversed(parent))
        self.assertEqual(
            stats.verdict(parent, change, "lower", 0.1)["verdict"],
            "unresolved")

    def test_ties_count_for_neither_side(self):
        v = stats.verdict([1, 1, 1, 1], [1, 1, 1, 2], "higher", 0.1)
        self.assertEqual(v["won"], 0.25)


class RunnerLayersTest(unittest.TestCase):
    def test_other_is_unclaimed_worker_time(self):
        totals = {"NPJ": {
            "windows": 1, "inputs": 1000, "matches": 500, "threads": 2,
            "runner_ms": 1.0, "pipeline_ms": 1.5, "cpu_ms": 1.0,
            "peak_tracked_bytes": 2**20,
            "phase_ns": {"wait": 0, "partition": 0, "build": 1e6,
                         "sort": 0, "merge": 0, "probe": 5e5,
                         "others": 1e5}}}
        m = run.runner_layers(totals)
        # 2 threads x 1 ms = 2e6 worker ns; phases claim 1.6e6.
        self.assertAlmostEqual(m["runner.other_ns_per_in"], 500)
        self.assertAlmostEqual(m["runner.npj.build_ns_per_in"], 1000)
        self.assertAlmostEqual(m["runner.ns_per_match"], 4000)
        self.assertAlmostEqual(m["runner.cpu_util"], 0.5)
        self.assertAlmostEqual(m["window_pipeline.overhead_ms"], 0.5)
        self.assertAlmostEqual(m["runner.peak_tracked_mb"], 1)


if __name__ == "__main__":
    unittest.main()
