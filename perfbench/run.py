#!/usr/bin/env python3
"""Builds the factlog benchmark from this checkout's src/ and runs one workload.

usage: python3 perfbench/run.py --workload <bound_queries|closure|
           view_maintenance|serving> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout. The build goes to the directory named
by CARGO_TARGET_DIR (default .bench_build) under the checkout root, and the
first run builds there (about a minute on 4 cores). The workload's metrics are
the last line of standard output; build output goes to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "factlog_bench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h")):
        sys.exit("perfbench: no factlog sources under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    build()
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        result = subprocess.run([BINARY, *sys.argv[1:], "--tmp", tmp],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
