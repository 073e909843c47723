"""Unit tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import tempfile
import unittest
from pathlib import Path

import run


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(1000), 99.0)   # exactly 10 beyond p99
        self.assertEqual(run.tail_percentile(999), 95.0)    # 9.99 beyond p99
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(39), 50.0)

    def test_capped_at_the_named_percentile(self):
        self.assertEqual(run.tail_percentile(10**6), 99.0)
        self.assertEqual(run.tail_percentile(10**6, highest=99.9), 99.9)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_percentile(3), 50.0)


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # unsorted input
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7.0], 99), 7.0)

    def test_two_clusters_keep_each_percentile_in_one(self):
        # One miss per kQueryRepeats + 1 = 4 queries: p50 is a hit, p99 a miss.
        samples = [0.002] * 300 + [1.0] * 100
        self.assertEqual(run.percentile(samples, 50), 0.002)
        self.assertEqual(run.percentile(samples, run.tail_percentile(len(samples))), 1.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.percentile([], 50)


class Ratios(unittest.TestCase):
    def test_error_ratio(self):
        self.assertEqual(run.error_ratio(8, 0), 0.0)
        self.assertEqual(run.error_ratio(8, 2), 0.25)
        with self.assertRaises(run.BenchError):
            run.error_ratio(0, 0)

    def test_overhead_ratio(self):
        self.assertAlmostEqual(run.overhead_ratio(1.1, 1.0), 0.1)
        self.assertAlmostEqual(run.overhead_ratio(0.9, 1.0), -0.1)

    def test_covered_merges_overlaps_and_skips_gaps(self):
        self.assertEqual(run.covered_s([(0, 2), (1, 3), (5, 6), (5, 5.5)]), 4)
        self.assertEqual(run.covered_s([]), 0)


class Counting(unittest.TestCase):
    def test_commands_lines_and_checks_all_count(self):
        counts = run.Counts()
        counts.check(True)        # a command that exits 0
        counts.check(False)       # an output that differs from its reference
        counts.add(100, 3)        # protocol lines, three answered ERR
        self.assertEqual((counts.attempted, counts.failed), (102, 4))
        self.assertAlmostEqual(run.error_ratio(counts.attempted, counts.failed), 4 / 102)


class SpanMetrics(unittest.TestCase):
    """SpanLog over a small hand-written span file."""

    def spans(self, rows):
        path = Path(self.tmp.name) / "spans.tsv"
        path.write_text("trace\tt/seed-1\n" + "".join("\t".join(map(str, r)) + "\n" for r in rows))
        return run.SpanLog(path)

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    MS = 1_000_000

    def analyze_spans(self):
        ms = self.MS
        return self.spans([
            # id, parent, name, start, end (ns); children precede parents, as written
            (2, 1, "data.read_log_file", 0, 400 * ms),
            (3, 1, "analysis.run_study", 400 * ms, 900 * ms),
            (9, 1, "report.render_study_text", 900 * ms, 950 * ms),
            (1, 0, "replica", 0, 1000 * ms),
            (5, 4, "data.index_build", 0, 100 * ms),
            (6, 4, "analysis.tbf", 100 * ms, 300 * ms),
            (7, 4, "analysis.ttr", 300 * ms, 350 * ms),
            (8, 4, "analysis.run_study_jobs1", 350 * ms, 700 * ms),
            (4, 0, "analysis.breakdown", 0, 700 * ms),
        ])

    def test_totals_and_grouping(self):
        log = self.analyze_spans()
        self.assertAlmostEqual(log.total("analysis.tbf"), 0.2)
        kids = dict(log.children_of("analysis.breakdown"))
        self.assertEqual(len(kids[4]), 4)
        self.assertEqual([pid for pid, _ in log.children_of("replica")], [1])

    def test_analyze_attributes_leaf_calls_serially_and_run_study_in_parallel(self):
        log = self.analyze_spans()
        # jobs 1: read + index + the tasks + render; the executor's own time is not attributed.
        self.assertAlmostEqual(run.attributed_s("analyze-csv", log, 1), 0.4 + 0.1 + 0.25 + 0.05)
        # jobs 4: the tasks overlap, so their run_study call stands in for them.
        self.assertAlmostEqual(run.attributed_s("analyze-csv", log, 4), 0.4 + 0.5 + 0.05)

    def test_sweep_counts_overlapping_stages_once(self):
        ms = self.MS
        log = self.spans([
            (2, 1, "sim.stage", 0, 300 * ms),
            (3, 1, "sim.stage", 100 * ms, 400 * ms),   # a second worker, overlapping
            (4, 1, "sim.stage", 500 * ms, 600 * ms),   # after a gap no call covers
            (1, 0, "sim.run_sweep", 0, 800 * ms),
            (5, 0, "stats.bootstrap_mean_ci", 900 * ms, 1000 * ms),
        ])
        self.assertAlmostEqual(run.attributed_s("sweep", log, 2), 0.4 + 0.1 + 0.1)


class BenchmarkJson(unittest.TestCase):
    def test_lists_exactly_the_metrics_run_py_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.assertEqual(listed, table, key)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


if __name__ == "__main__":
    unittest.main()
