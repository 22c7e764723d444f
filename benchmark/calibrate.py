#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs the `BENCHMARK.json` command RUNS times per workload, each time with
another seed, and prints for every end-to-end metric its median, its
quartiles (`statistics.quantiles(values, n=4)`), its spread (the distance
between the quartiles as a share of the median) and its bound.

    python3 benchmark/calibrate.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run it from anywhere; it runs the command from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    started = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result["metrics"], time.monotonic() - started


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for i in range(args.runs):
            metrics, wall = run(spec, workload, args.first_seed + i)
            walls.append(wall)
            for name in values:
                values[name].append(metrics[name]["value"])
        print(f"{workload}: {args.runs} runs, {statistics.mean(walls):.1f} s each")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median
            print(
                f"  {m['name']:<14} {median:>12.4f} {q1:>12.4f} {q3:>12.4f}"
                f" {spread:>7.3f} {m['bound']:>6}"
            )
        print(f"  raw: {json.dumps(values)}", flush=True)


if __name__ == "__main__":
    main()
