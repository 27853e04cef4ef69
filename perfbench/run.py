#!/usr/bin/env python3
"""Build and run one workload of the NVWAL end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (a CMake project over the engine's src/) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs rebuild only what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.
The exit status is the benchmark's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("update-large", "append-window")


def run_timeout(seconds):
    """A run measures for `seconds`, then sets up, checks, crashes and
    recovers ten times (a few seconds in all); far beyond that it hangs."""
    return 2 * seconds + 60


def build():
    """Configure (once) and build the benchmark; return its path."""
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "nvwal_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("benchmark build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "nvwal_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    timeout = run_timeout(args.seconds)
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        sys.stderr.write("benchmark run timed out after %g s\n" % timeout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
