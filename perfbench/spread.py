#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics on one workload.

    python3 perfbench/spread.py WORKLOAD [--runs N] [--first-seed S]
                                [--seconds T] [--trace 0|1]

Runs the benchmark N times with consecutive seeds and prints, per
metric, the median, the quartiles (statistics.quantiles(n=4)) and the
spread: the interquartile distance as a share of the median.  Compare
the spread with the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
        print(f"{name:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
