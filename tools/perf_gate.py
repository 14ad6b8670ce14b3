#!/usr/bin/env python3
r"""Gates fresh perfbench results against a committed baseline.

    python3 tools/perf_gate.py BENCHMARK.json bench/baselines/perfbench.json \
        run1.out [run2.out ...]

Each run file holds the output of `python3 perfbench/run.py --workload all
...`; its last line is the JSON result. The baseline is one such result (the
median of its runs). For every `<workload>/<metric>` in the baseline the gate
takes the median over the fresh runs and compares it with the baseline under
the metric's relative bound and direction from BENCHMARK.json's end_to_end
list. Exit code 1 when a baseline metric is missing from a run, a median is
worse than its bound allows, or a run reports "correct": false or failed
calls; 2 when an input cannot be read; else 0.
"""

import json
import statistics
import sys


def load_result(path):
    """A pretty-printed result file, or the last line of a run's output."""
    with open(path) as f:
        text = f.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.strip().splitlines()[-1])


def gate(benchmark, baseline, runs):
    """Returns the list of failures; prints one line per gated metric."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    failures = []
    for i, run in enumerate(runs):
        if run.get("correct") is not True:
            failures.append("run %d: correct is %r" % (i + 1, run.get("correct")))
        if run.get("failed") != 0:
            failures.append("run %d: %r failed calls" % (i + 1, run.get("failed")))
    for name, entry in sorted(baseline["metrics"].items()):
        spec = bounds.get(name.split("/", 1)[-1])
        if spec is None:
            failures.append("%s: no end_to_end bound in BENCHMARK.json" % name)
            continue
        values = [r.get("metrics", {}).get(name, {}).get("value") for r in runs]
        if any(v is None for v in values):
            failures.append("%s: missing from %d of %d runs"
                            % (name, values.count(None), len(values)))
            continue
        base = entry["value"]
        median = statistics.median(values)
        if spec["better"] == "lower":
            worse = median > base * (1 + spec["bound"])
        else:
            worse = median < base * (1 - spec["bound"])
        change = (median / base - 1) * 100 if base else 0.0
        print("%-4s %-32s base %12.6g  median %12.6g  %+7.1f%%  bound %g %s"
              % ("FAIL" if worse else "ok", name, base, median, change,
                 spec["bound"], spec["better"]))
        if worse:
            failures.append("%s: %.6g is worse than %.6g beyond bound %g"
                            % (name, median, base, spec["bound"]))
    return failures


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            benchmark = json.load(f)
        baseline = load_result(argv[2])
        runs = [load_result(path) for path in argv[3:]]
    except (OSError, ValueError, IndexError) as e:
        print("perf_gate: cannot read input: %s" % e, file=sys.stderr)
        return 2
    failures = gate(benchmark, baseline, runs)
    for failure in failures:
        print("perf_gate: %s" % failure, file=sys.stderr)
    print("perf_gate: %s (%d runs, %d metrics)"
          % ("FAIL" if failures else "pass", len(runs), len(baseline["metrics"])))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
