#!/usr/bin/env python3
"""Tests of tools/perf_gate.py against the committed perfbench baseline.

    python3 tests/perf_gate_test.py

Each case writes fresh-run files derived from bench/baselines/perfbench.json
and checks the gate's exit code.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "tools", "perf_gate.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(ROOT, "bench", "baselines", "perfbench.json")


def load_baseline():
    with open(BASELINE) as f:
        return json.load(f)


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = load_baseline()

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, runs):
        """Writes each run as the last line of a run's output; returns the
        gate's exit code."""
        paths = []
        for i, run in enumerate(runs):
            path = os.path.join(self.tmp.name, "run%d.out" % i)
            with open(path, "w") as f:
                f.write("paper_sweep:\n  pass: wall 1.0 s\n")
                f.write(json.dumps(run) + "\n")
            paths.append(path)
        done = subprocess.run(
            [sys.executable, GATE, BENCHMARK_JSON, BASELINE, *paths],
            capture_output=True, text=True)
        # A failure is the gate's verdict, never a crash.
        self.assertNotIn("Traceback", done.stderr)
        return done.returncode

    def run_with(self, name, factor):
        run = copy.deepcopy(self.baseline)
        run["metrics"][name]["value"] *= factor
        return run

    def test_baseline_against_itself_passes(self):
        self.assertEqual(self.gate([self.baseline]), 0)
        self.assertEqual(
            subprocess.run([sys.executable, GATE, BENCHMARK_JSON, BASELINE,
                            BASELINE], capture_output=True).returncode, 0)

    def test_ten_percent_slower_run_passes(self):
        self.assertEqual(self.gate([self.run_with("paper_sweep/run_s", 1.10)]),
                         0)

    def test_thirty_percent_slower_run_fails(self):
        self.assertEqual(self.gate([self.run_with("st_series/run_s", 1.30)]), 1)

    def test_median_over_runs_is_gated(self):
        slow = self.run_with("paper_step0/run_s", 1.30)
        # One slow run of three is an outlier; two of three move the median.
        self.assertEqual(self.gate([slow, self.baseline, self.baseline]), 0)
        self.assertEqual(self.gate([slow, slow, self.baseline]), 1)

    def test_lower_cell_reduction_fails(self):
        self.assertEqual(
            self.gate([self.run_with("paper_sweep/cell_reduction", 0.80)]), 1)

    def test_missing_metric_fails(self):
        run = copy.deepcopy(self.baseline)
        del run["metrics"]["stream_ingest/peak_mib"]
        self.assertEqual(self.gate([run, self.baseline, self.baseline]), 1)

    def test_incorrect_run_fails(self):
        run = copy.deepcopy(self.baseline)
        run["correct"] = False
        self.assertEqual(self.gate([self.baseline, run, self.baseline]), 1)

    def test_failed_call_fails(self):
        run = copy.deepcopy(self.baseline)
        run["failed"] = 1
        self.assertEqual(self.gate([self.baseline, self.baseline, run]), 1)

    def test_baseline_holds_every_workload_and_bounded_metric(self):
        with open(BENCHMARK_JSON) as f:
            benchmark = json.load(f)
        expected = {"%s/%s" % (w["name"], m["name"])
                    for w in benchmark["workloads"]
                    for m in benchmark["end_to_end"]}
        self.assertEqual(set(self.baseline["metrics"]), expected)
        self.assertIs(self.baseline["correct"], True)
        self.assertEqual(self.baseline["failed"], 0)


if __name__ == "__main__":
    unittest.main()
