#!/usr/bin/env python3
"""Self-check of the benchmark: every workload, untraced and traced, at
a tiny size (op-count-bounded windows), run twice.

    python3 perfbench/selftest.py

Asserts that each run is correct with no failed op, that every metric
BENCHMARK.json names is reported, and that the deterministic values
repeat exactly between the two runs: Direct_env allocation per op,
space amplification, transport call counts, and the simulated-time
results of the simulator leg.  Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TRANSPORT = ["transport.calls_per_write", "transport.calls_per_read",
             "transport.bytes_per_op", "integrity.digests_per_write"]
SIM = ["recovery.full_rebuilds", "recovery.delta_hit_ratio",
       "recovery.bytes_read_per_repair", "volume.failovers",
       "volume.false_alarms", "sim.repair_s", "sim.detect_s",
       "sim.mb_per_s", "sim.write_mean_ms", "sim.read_mean_ms",
       "sim.write_p99_ms", "sim.read_p99_ms", "sim.alloc_bytes_per_op",
       "sim.space_amp", "sim.events_per_op"]
EXACT = {
    0: {w: ["alloc_bytes_per_op", "space_amp"]
        for w in ("write-64k", "mixed-4k")},
    1: {w: TRANSPORT + SIM for w in ("write-64k", "mixed-4k")},
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "60", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n"
                 f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: [m["name"] for m in bench["end_to_end"]],
             1: [m["name"] for m in bench["per_layer"]]}
    problems = []
    for w in [x["name"] for x in bench["workloads"]]:
        for trace in (0, 1):
            a, b = run(w, trace), run(w, trace)
            for r in (a, b):
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    problems.append(f"{w} trace={trace}: incorrect run {r}")
                missing = set(names[trace]) - set(r["metrics"])
                if missing:
                    problems.append(f"{w} trace={trace}: missing {missing}")
            for m in EXACT[trace].get(w, []):
                va = a["metrics"][m]["value"]
                vb = b["metrics"][m]["value"]
                if va != vb:
                    problems.append(f"{w} trace={trace}: {m} {va} != {vb}")
            print(f"{w} trace={trace}: ok", file=sys.stderr)
    if problems:
        sys.exit("\n".join(problems))
    print("selftest: ok")


if __name__ == "__main__":
    main()
