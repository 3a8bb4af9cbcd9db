#!/usr/bin/env python3
"""Builds the perfbench runner from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The build goes to .bench_build/ (Release); build output goes to stderr, so
the last line of stdout is the runner's JSON result. Span dumps of traced
runs land in .bench_build/traces/. --self-test also builds a SimSan tree in
.bench_build/simsan/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build(target, tree=BUILD, options=()):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release", *options])
    steps.append(["cmake", "--build", tree, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(tree, target)


def self_test():
    """Runs the tests on the Release tree, then the fleet-audit tests on a
    second tree built with SimSan, where sync overruns and SimSan violations
    are detected."""
    code = subprocess.run([build("perfbench_test")]).returncode
    if code != 0:
        return code
    simsan = build("perfbench_test", os.path.join(BUILD, "simsan"), ["-DAEGAEON_SIMSAN=ON"])
    return subprocess.run([simsan, "--gtest_filter=*UnderSimSan*"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("aegaeon_perfbench")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    sys.stdout.flush()
    result = subprocess.run([binary, "--workload", args.workload, "--seed", args.seed,
                             "--seconds", args.seconds, "--trace", args.trace,
                             "--trace-dir", traces], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
