#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload serve_churn --seeds 1 2 3 4 5 [--trace 0]

Runs the command in BENCHMARK.json once per seed, for the
``run_seconds`` the benchmark gates at, then prints, for every
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
interquartile range as a share of the median, next to the metric's bound.
A spread above a third of its bound is flagged. Every run's result line
is appended to ``.bench_out/spread-<workload>.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    os.makedirs(".bench_out", exist_ok=True)
    log = open(f".bench_out/spread-{args.workload}.jsonl", "a")
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        log.write(json.dumps({"seed": seed, **result}) + "\n")
        log.flush()
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: ok", file=sys.stderr)

    print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "  <-- above a third of its bound" if bound and spread > bound / 3 else ""
        bound_text = f"{bound:6.2f}" if bound else "     -"
        print(f"{name:<30} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound_text}{flag}")


if __name__ == "__main__":
    main()
