#!/usr/bin/env python3
"""Steadiness of the benchmark: repeated runs, quartiles, set comparison.

Run every workload N times and save the results:

    python3 perfbench/steady.py run --runs 10 --seed 1 --out a.json
    python3 perfbench/steady.py run --runs 5 --seed 7 --same-seed --out b.json

Seeds are --seed, --seed+1, ... (or --seed every time with --same-seed).
For every metric it prints the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)) and the spread: the
interquartile distance as a share of the median, against the metric's
bound in BENCHMARK.json. "steady" means the spread is under a third of
the bound; setup_s is only reported.

Compare two saved sets run on the same build:

    python3 perfbench/steady.py compare a.json b.json

Each metric's median in the second set may be worse than in the first
by at most its bound, and the share of failed operations must be the
same in both sets. Exit status 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_one(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds",
           str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)"
                         % (" ".join(cmd), done.returncode))
    return json.loads(lines[-1])


def cmd_run(args):
    spec = load_spec()
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.runs):
            seed = args.seed if args.same_seed else args.seed + i
            result = run_one(spec, workload, seed, args.trace)
            result["seed"] = seed
            runs.append(result)
            print("%s seed %d: correct=%s attempted=%d failed=%d"
                  % (workload, seed, result["correct"], result["attempted"],
                     result["failed"]), flush=True)
        results[workload] = runs
        report(spec, workload, runs, args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"trace": args.trace, "results": results}, f, indent=1)
    return 0


def report(spec, workload, runs, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    print("\n%s: %d runs" % (workload, len(runs)))
    print("  %-34s %14s %14s %14s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for metric in group:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = metric.get("bound")
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "steady" if spread < bound / 3 else (
                "ok" if spread <= bound else "WIDE")
        print("  %-34s %14.4f %14.4f %14.4f %8.4f %6s %s" %
              (name, q1, med, q3, spread,
               "" if bound is None else "%.3f" % bound, verdict))
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print("  failed share: %s" % ", ".join("%.6g" % s for s in shares))


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        first = json.load(f)["results"]
    with open(args.second) as f:
        second = json.load(f)["results"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in first or workload not in second:
            print("%s: missing from a set" % workload)
            ok = False
            continue
        a, b = first[workload], second[workload]
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print("\n%s: failed share %.6g vs %.6g" % (workload, share_a, share_b))
        if share_a != share_b:
            ok = False
            print("  FAIL: failed shares differ")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            m1 = statistics.median(r["metrics"][name]["value"] for r in a)
            m2 = statistics.median(r["metrics"][name]["value"] for r in b)
            if metric["better"] == "lower":
                worse = (m2 - m1) / abs(m1) if m1 else 0.0
            else:
                worse = (m1 - m2) / abs(m1) if m1 else 0.0
            verdict = "ok" if worse <= bound else "FAIL"
            ok = ok and verdict == "ok"
            print("  %-34s %14.4f %14.4f  worse by %+.4f (bound %.3f) %s"
                  % (name, m1, m2, worse, bound, verdict))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--same-seed", action="store_true")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", default="")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
