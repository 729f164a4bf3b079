#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs each workload once per seed (seeds first-seed, first-seed + 1, ...)
through perfbench/run.py with the run length of BENCHMARK.json, and prints
for every end-to-end metric its median and its spread: the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to a third of the metric's bound. Every run must be correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for k in range(args.runs):
            seed = args.first_seed + k
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            if m["name"] == "setup_s":
                flag += " (not spread-checked)"
            print(f"  {workload:17s} {m['name']:22s} median {med:12.5g} "
                  f"spread {spread:7.4f}  bound/3 {m['bound'] / 3:.4f} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
