#!/usr/bin/env python3
"""Runs one workload repeatedly and reports how steady each metric is.

    python3 perfbench/steadiness.py --workload serve_mixed --runs 10
    python3 perfbench/steadiness.py --workload archive_versions --runs 5 \
        --first-seed 100 --save runs.json

Each run uses the next seed (first-seed, first-seed+1, ...) and the
run_seconds of BENCHMARK.json unless --seconds is given. For every metric it
prints the median, the quartiles and the spread (q3-q1)/median, computed with
statistics.quantiles(values, n=4). For end-to-end metrics it also prints the
metric's bound and flags a spread wider than a third of it. Exits 1 when a run
fails or a spread is too wide.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's result here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"seed {seed}: no result (exit {proc.returncode})")
            return 1
        results.append({"seed": seed, "exit": proc.returncode, **result})
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']}"
              f" failed={result['failed']}/{result['attempted']}", flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)

    ok = all(r["exit"] == 0 and r["correct"] for r in results)
    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- wider than bound/3"
            ok = False
        bound_text = f"{bound:6.2f}" if bound is not None else ""
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound_text:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
