#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root. Builds srp_perfbench and its unit tests, then:
  - runs the unit tests (output checks reject corrupted partitions and wrong
    information losses, strict flag parsing, span self time);
  - checks that BENCHMARK.json keeps to the benchmark contract;
  - checks that the metric names and units srp_perfbench prints, in both
    modes, are exactly those of BENCHMARK.json;
  - checks that malformed flags fail without printing a result.
Exit code 0 when everything passes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build helper)

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def perfbench(*args):
    return subprocess.run(
        [os.path.join(run.BUILD_DIR, "srp_perfbench"), "--out-dir", run.OUT_DIR,
         *args],
        capture_output=True, text=True, timeout=170)


def result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [w["name"] for w in b["workloads"]]
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))


class MetricNamesTest(unittest.TestCase):
    def expected(self, section):
        return {m["name"]: m["unit"] for m in load_benchmark()[section]}

    def test_schema_matches(self):
        listed = perfbench("--list-metrics")
        self.assertEqual(listed.returncode, 0, listed.stderr)
        got = {"end_to_end": {}, "per_layer": {}}
        for line in listed.stdout.splitlines():
            section, name, unit = line.split()
            got[section][name] = unit
        self.assertEqual(got["end_to_end"], self.expected("end_to_end"))
        self.assertEqual(got["per_layer"], self.expected("per_layer"))

    def test_printed_metrics_match_in_both_modes(self):
        workloads = [w["name"] for w in load_benchmark()["workloads"]]
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            out = perfbench("--workload", workloads[-1], "--seed", "3",
                         "--seconds", "1", "--trace", trace)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = result_line(out.stdout)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, self.expected(section))


class FlagsTest(unittest.TestCase):
    def test_malformed_flags_fail_without_a_result(self):
        for args in (["--seed", "abc"], ["--trace", "2"], ["--workload", "x"],
                     ["--seconds", "0"], ["--bogus"]):
            out = perfbench(*args)
            self.assertEqual(out.returncode, 2, args)
            self.assertNotIn("{", out.stdout, args)


def main():
    try:
        run.build(["srp_perfbench", "srp_perfbench_selftest"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    unit = subprocess.run([os.path.join(run.BUILD_DIR, "srp_perfbench_selftest")])
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if unit.returncode == 0 and ok else 1


if __name__ == "__main__":
    sys.exit(main())
