#!/usr/bin/env python3
"""Repeat one workload and report how steady its end-to-end metrics are.

Usage, from the root of the repository:

    python3 e2ebench/steady.py --workload <name> [--runs 10] [--seed 1]
                               [--seconds <s>] [--trace 0]

Runs `e2ebench/run.py` once per seed (`seed`, `seed + 1`, ...), then prints
for every metric its median, first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median, and
that spread against the metric's bound in BENCHMARK.json. Also prints the
share of failed operations per run, which must be the same in every run.
The bounds in BENCHMARK.json are set from this command's output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", default="0")
    a = p.parse_args()
    specs = bench["end_to_end"] if a.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in specs}

    values = {}
    shares = []
    for i in range(a.runs):
        seed = a.seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(a.seconds), "--trace", a.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"run with seed {seed} exited {out.returncode}", file=sys.stderr)
            return 1
        summary = json.loads(out.stdout.strip().splitlines()[-1])
        if not summary["correct"]:
            print(f"run with seed {seed} reported incorrect output", file=sys.stderr)
            return 1
        shares.append(summary["failed"] / summary["attempted"])
        for name, m in summary["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in summary["metrics"].items()),
              flush=True)

    print(f"\n{a.workload}: {a.runs} runs of {a.seconds}s, failed share per run: {sorted(set(shares))}")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'/bound':>7}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        rel = f"{spread / bound:7.2f}" if bound else "      -"
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound else '-':>6} {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
