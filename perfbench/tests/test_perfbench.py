"""Self-tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

The checker, percentile and trace tests are pure Python.  The failure
tests and the traced-run test build the benchmark binaries (as run.py
does) and start real daemons on ephemeral ports; the traced-run test runs
every workload's traced path once, short (about a minute in all).
"""

import json
import math
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from lib import build, checks, stats, tracing, workloads  # noqa: E402
from lib.procs import BenchError, Fleet  # noqa: E402

TRUTH = ("# contig\tposition\tref\talt\tzygosity\n"
         "chrSim\t100\tA\tG\thom\n"
         "chrSim\t200\tC\tT\thom\n"
         "chrSim\t300\tg\tc\thom\n")
HEADER = "# contig\tposition\tref\tallele1\tallele2\tcoverage\tlrt\tp_value\n"


def call(pos, ref, a1, a2=None):
    return f"chrSim\t{pos}\t{ref}\t{a1}\t{a2 or a1}\t10.00\t30.0000\t1.000e-08\n"


class ScorerTest(unittest.TestCase):
    def score(self, rows):
        truth = checks.read_catalog(TRUTH)
        return checks.score_calls(checks.read_calls(HEADER + "".join(rows)),
                                  truth)

    def test_exact_calls_score_perfect(self):
        s = self.score([call(100, "A", "G"), call(200, "C", "T"),
                        call(300, "G", "C")])
        self.assertEqual((s.true_calls, s.false_calls, s.missed), (3, 0, 0))

    def test_dropped_call_is_missed(self):
        s = self.score([call(100, "A", "G"), call(300, "G", "C")])
        self.assertEqual((s.true_calls, s.false_calls, s.missed), (2, 0, 1))
        self.assertAlmostEqual(s.recall, 2 / 3)

    def test_shifted_call_is_false_and_missed(self):
        s = self.score([call(101, "A", "G"), call(200, "C", "T"),
                        call(300, "G", "C")])
        self.assertEqual((s.true_calls, s.false_calls, s.missed), (2, 1, 1))

    def test_allele_swapped_call_is_false_and_missed(self):
        s = self.score([call(100, "A", "T"), call(200, "C", "T"),
                        call(300, "G", "C")])
        self.assertEqual((s.true_calls, s.false_calls, s.missed), (2, 1, 1))
        self.assertLess(s.precision, 1.0)

    def test_normalization_trims_shared_bases(self):
        self.assertEqual(checks.normalize("c", 10, "AC", ["GC"]),
                         checks.normalize("c", 10, "A", ["G"]))


class PlacementTest(unittest.TestCase):
    def test_origin_strand_and_slack(self):
        sam = ("@HD\tVN:1.6\n"
               "chrSim:100:+:0\t0\tchrSim\t101\t60\t62M\t*\t0\t0\tA\tI\n"
               "chrSim:100:-:1\t16\tchrSim\t105\t60\t62M\t*\t0\t0\tA\tI\n"
               "chrSim:100:+:2\t16\tchrSim\t101\t60\t62M\t*\t0\t0\tA\tI\n"
               "chrSim:100:+:3\t0\tchrSim\t500\t60\t62M\t*\t0\t0\tA\tI\n"
               "chrSim:100:+:3\t256\tchrSim\t101\t3\t62M\t*\t0\t0\tA\tI\n"
               "chrSim:100:+:4\t4\t*\t0\t0\t*\t*\t0\t0\tA\tI\n")
        p = checks.sam_placement(sam)
        # Right, right (within slack), wrong strand, wrong place (its
        # secondary record does not count), unmapped.
        self.assertEqual((p.reads, p.placed, p.unmapped), (5, 2, 1))


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(99)), 90.0))
        self.assertEqual(stats.percentile(list(range(1, 101)), 90.0), 90)

    def test_only_percentiles_with_ten_beyond_are_reported(self):
        self.assertIsNone(stats.percentile(list(range(100)), 99.0))
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99.0), 990)
        self.assertIsNone(stats.percentile(list(range(19)), 50.0))
        self.assertEqual(stats.percentile(list(range(1, 21)), 50.0), 10)

    def test_served_latency_without_enough_samples_fails(self):
        with self.assertRaises(BenchError):
            workloads.latency_metrics([0.01] * 99, runs_are_requests=True)


class SelfTimeTest(unittest.TestCase):
    def test_child_time_is_subtracted(self):
        spans = [
            {"name": "outer", "tid": 1, "ts": 0.0, "dur": 100.0},
            {"name": "inner", "tid": 1, "ts": 10.0, "dur": 30.0},
            {"name": "inner", "tid": 1, "ts": 50.0, "dur": 20.0},
            {"name": "other", "tid": 2, "ts": 0.0, "dur": 5.0},
        ]
        self_s, counts = tracing.self_times(spans)
        self.assertAlmostEqual(self_s["outer"], 50e-6)
        self.assertAlmostEqual(self_s["inner"], 50e-6)
        self.assertAlmostEqual(self_s["other"], 5e-6)
        self.assertEqual(counts["inner"], 2)


class FailureTest(unittest.TestCase):
    """A dead daemon or a mismatched response fails the run loudly."""

    @classmethod
    def setUpClass(cls):
        cls.build_dir = build.build(ROOT)

    def setUp(self):
        scratch = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
        self.ctx = workloads.Context(self.build_dir, self.tmp, self.tmp,
                                     seed=3, seconds=0.5, trace=False,
                                     label="test")
        d = workloads.generate(self.ctx, "serve", workloads.SERVE_COVERAGE)
        self.ref = os.path.join(d, "reference.fa")
        self.req_dir = workloads.make_requests(self.ctx, d)
        workloads.harness_json(self.ctx, "expect", "expect", "--ref", self.ref,
                               "--requests", self.req_dir,
                               "--count", workloads.REQUESTS)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def start(self, fleet):
        daemon = fleet.start("gnumapd", workloads.daemon_argv(
            self.ctx, "--ref", self.ref, "--threads", 1))
        daemon.wait_ready()
        return daemon

    def test_healthy_daemon_passes(self):
        with Fleet(self.tmp) as fleet:
            daemon = self.start(fleet)
            run = workloads.load(self.ctx, "load", daemon.port, self.req_dir,
                                 self.req_dir, 1, 0)
        self.assertEqual(run["attempted"], workloads.REQUESTS)

    def test_mismatched_response_fails(self):
        with open(os.path.join(self.req_dir, "req_005.tsv"), "a") as f:
            f.write("chrSim\t1\tA\tC\tC\t1.00\t1.0000\t1.000e-01\n")
        with Fleet(self.tmp) as fleet:
            daemon = self.start(fleet)
            with self.assertRaisesRegex(BenchError, "differs from the expected"):
                workloads.load(self.ctx, "load", daemon.port, self.req_dir,
                               self.req_dir, 1, 0)

    def test_dead_daemon_fails_and_is_reaped(self):
        with Fleet(self.tmp) as fleet:
            daemon = self.start(fleet)
            daemon.proc.kill()
            daemon.proc.wait()
            with self.assertRaises(BenchError):
                workloads.load(self.ctx, "load", daemon.port, self.req_dir,
                               self.req_dir, 1, 0)
            with self.assertRaises(BenchError):
                daemon.peak_rss_mb()

    def test_daemon_exiting_before_listening_fails(self):
        with Fleet(self.tmp) as fleet:
            bad = fleet.start("gnumapd", workloads.daemon_argv(
                self.ctx, "--ref", os.path.join(self.tmp, "missing.fa")))
            with self.assertRaisesRegex(BenchError, "before listening"):
                bad.wait_ready()

    def test_fleet_stops_daemons_on_error(self):
        procs = []
        with self.assertRaises(RuntimeError):
            with Fleet(self.tmp) as fleet:
                procs.append(self.start(fleet).proc)
                raise RuntimeError("check failed")
        self.assertIsNotNone(procs[0].poll())


class TracedRunTest(unittest.TestCase):
    """Every workload's traced path runs to its end and reports its layers."""

    @classmethod
    def setUpClass(cls):
        build_dir = build.build(ROOT)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.per_layer = {m["name"] for m in json.load(f)["per_layer"]}
        scratch = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        cls.results = {}
        for name, run in workloads.WORKLOADS.items():
            tmp = tempfile.mkdtemp(prefix="selftest-trace-", dir=scratch)
            try:
                ctx = workloads.Context(build_dir, tmp, tmp, seed=4,
                                        seconds=0.2, trace=True, label=name)
                cls.results[name] = run(ctx)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)

    def test_each_workload_reports_finite_layer_metrics(self):
        for name, result in self.results.items():
            with self.subTest(workload=name):
                self.assertLessEqual(set(result.metrics), self.per_layer)
                for key in ("trace.residual_share", "trace.overhead_share",
                            "trace.spans"):
                    self.assertIn(key, result.metrics)
                for key, value in result.metrics.items():
                    self.assertTrue(math.isfinite(value), f"{key} = {value}")
                self.assertGreaterEqual(result.attempted, 1)

    def test_every_per_layer_metric_is_reported(self):
        reported = set()
        for result in self.results.values():
            reported |= set(result.metrics)
        self.assertEqual(self.per_layer - reported, set())


if __name__ == "__main__":
    unittest.main()
