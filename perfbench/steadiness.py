#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs every workload once per seed, in one or more separate sets, and prints
for each metric the median, the quartiles and the spread (interquartile
distance over the median, from statistics.quantiles(values, n=4)). It then
checks the figures against the bounds in BENCHMARK.json: every spread must
stay within a third of its bound, and every metric's median in a later set
must not move from the first set's by more than its bound, in either
direction. setup_s's spread is printed but not checked: the acceptance rule
this mirrors exempts it and gates setup_s on the median shift alone.

Usage (from the repository root):
  python3 perfbench/steadiness.py [--sets 2] [--seeds 1-10] [--workloads a,b]
                                  [--seconds N] [--out file.json]
  python3 perfbench/steadiness.py --load file.json   # re-check saved runs
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def change(first, later):
    return (later - first) / first if first else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--out", default="")
    parser.add_argument("--load", default="", help="re-check the sets saved by --out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    sets = []
    if args.load:
        with open(args.load) as f:
            saved = json.load(f)
        seconds, seeds = saved["seconds"], saved["seeds"]
        sets = [{w: {name: summarize(s[w][name]["values"]) for name in metrics}
                 for w in workloads} for s in saved["sets"]]
    for set_index in range(0 if args.load else args.sets):
        summary = {}
        for workload in workloads:
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, seconds))
                print(f"set {set_index + 1} {workload} seed {seed} done", file=sys.stderr)
            summary[workload] = {name: summarize([r[name] for r in runs]) for name in metrics}
        sets.append(summary)

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':16s} {'bound':>6s}" + "".join(
            f"  {'set' + str(i + 1) + ' median':>14s} {'q1':>11s} {'q3':>11s} {'spread':>7s}"
            for i in range(len(sets))) + "  shift")
        for name, spec in metrics.items():
            row = f"  {name:16s} {spec['bound']:6.3f}"
            for s in sets:
                st = s[workload][name]
                row += f"  {st['median']:14.6g} {st['q1']:11.6g} {st['q3']:11.6g} {st['spread']:7.4f}"
                if name != "setup_s" and st["spread"] > spec["bound"] / 3:
                    ok = False
                    row += " !"
            shift = max((change(sets[0][workload][name]["median"], s[workload][name]["median"])
                         for s in sets[1:]), key=abs, default=0.0)
            if abs(shift) > spec["bound"]:
                ok = False
                row += " !"
            print(row + f"  {shift:+.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "seeds": seeds, "sets": sets}, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady (! marks a spread over a third of its bound, "
          "or a median shift over its bound)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
