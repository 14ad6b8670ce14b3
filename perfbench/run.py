#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The first call configures and builds the
project's libraries and srp_perfbench into .bench_build/ (Release); later
calls only re-check the build. Every argument is passed to srp_perfbench
(perfbench/src/main.cc), which parses them strictly. Build output goes to
standard error, so the program's JSON result stays the last line of standard
output. Exit code: the program's, or 2 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise OSError("project sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets],
        stdout=sys.stderr, check=True)
    return BUILD_DIR


def main():
    try:
        build_dir = build(["srp_perfbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    program = os.path.join(build_dir, "srp_perfbench")
    return subprocess.run([program, "--out-dir", OUT_DIR, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
