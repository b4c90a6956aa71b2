#!/usr/bin/env python3
"""Runs one workload of the ForkBase benchmark and prints its result.

    python3 perfbench/run.py --workload collab_table --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first call builds the library,
forkbase_cli and the fbbench harness from source into .bench_build/ (CMake,
Release). Every process runs on the CPU set named in ENVIRONMENT.json; store
directories and sockets go to .bench_data/ and are removed afterwards.

Standard output: one line per metric (name, value, unit, sample count), the
environment facts, then as the last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list. Exits
non-zero, printing no result, when the program cannot be built or a metric
is missing; exits 1 after printing the result when a check failed.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
# Runnable here but not in BENCHMARK.json: its medians move too much between
# runs on a 4-vCPU VM to hold a bound (see README.md).
UNGATED_WORKLOADS = ["serve_mixed"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings fbbench and forkbase_cli up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "3",
                    "--target", "fbbench", "forkbase_cli"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(BUILD, "fbbench"),
            os.path.join(BUILD, "forkbase", "forkbase_cli"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--inject", choices=("wrong-read", "tamper"),
                        help="deliberately corrupt one read (tests)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "ENVIRONMENT.json")) as f:
        env = json.load(f)
    known = [w["name"] for w in bench["workloads"]] + UNGATED_WORKLOADS
    if args.workload not in known:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    try:
        fbbench, cli = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    # The same CPU set for this script, the generator threads and the server
    # child, on every run and on both sides of a comparison.
    cpus = set(env["cpu_placement"]["cpus"]) & os.sched_getaffinity(0)
    if len(cpus) >= 2:
        os.sched_setaffinity(0, cpus)

    data = os.path.join(ROOT, ".bench_data", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    cmd = [fbbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", data, "--cli", cli]
    if args.trace:
        cmd += ["--spans", os.path.join(ROOT, ".bench_data",
                                        f"spans-{args.workload}.tsv")]
    if args.small:
        cmd.append("--small")
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        log(f"fbbench ran past {RUN_TIMEOUT_S} s")
    finally:
        # fbbench stops its server child itself; this reaps anything a crash
        # left behind in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(data, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"fbbench (exit {proc.returncode}) printed no result")
        return 2

    for name, m in raw["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(n={m['samples']})")
    for key, value in raw["facts"].items():
        print(f"{args.workload} fact {key} = {value}")
    print(f"{args.workload} fact cpus = {sorted(cpus)}")
    for err in raw["errors"]:
        print(f"{args.workload} error: {err}")

    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    wrong_unit = [m["name"] for m in wanted if m["name"] in raw["metrics"]
                  and raw["metrics"][m["name"]]["unit"] != m["unit"]]
    if missing or wrong_unit:
        log(f"missing metrics: {missing}; unit mismatch: {wrong_unit}")
        return 2
    result = {
        "correct": bool(raw["correct"]) and proc.returncode == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
