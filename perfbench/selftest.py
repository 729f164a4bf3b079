#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all in BENCHMARK.json) it runs briefly
  * untraced: correct, no failure, and exactly the end-to-end metrics of
    BENCHMARK.json, each with its unit;
  * traced: the same for the per-layer metrics;
  * with one output deliberately perturbed: the run must report
    correct = false and at least one failure.
It also checks that perfbench/layers.json maps every per-layer metric, and
that the benchmark exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "2"


def run(workload, trace, perturb=0, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), "--perturb", str(perturb)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(done, expected, label, errors):
    if done.returncode != 0:
        errors.append(f"{label}: exit code {done.returncode}: "
                      f"{done.stderr[-500:]}")
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != set(expected):
        errors.append(f"{label}: missing {sorted(set(expected) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        if name in got and got[name]["unit"] != unit:
            errors.append(f"{label}: {name} has unit {got[name]['unit']}, "
                          f"expected {unit}")
        if name in got and not isinstance(got[name]["value"], (int, float)):
            errors.append(f"{label}: {name} is not a number")
    return result


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []

    mapped = json.load(open(os.path.join(ROOT, "perfbench", "layers.json")))
    covered = {n for group in mapped["layers"] for n in group["metrics"]}
    if covered != set(layer):
        errors.append(f"layers.json: unmapped {sorted(set(layer) - covered)}, "
                      f"unknown {sorted(covered - set(layer))}")
    if not {w["name"] for w in spec["workloads"]} <= set(mapped["workloads"]):
        errors.append("layers.json: a BENCHMARK.json workload is not described")

    for w in workloads:
        print(f"selftest: {w}", flush=True)
        result = check_result(run(w, 0), e2e, f"{w} untraced", errors)
        if result and (not result["correct"] or result["failed"] != 0):
            errors.append(f"{w} untraced: run reported failures")
        result = check_result(run(w, 1), layer, f"{w} traced", errors)
        if result and (not result["correct"] or result["failed"] != 0):
            errors.append(f"{w} traced: run reported failures")
        result = check_result(run(w, 0, perturb=1), e2e, f"{w} perturbed",
                              errors)
        if result and (result["correct"] or result["failed"] < 1):
            errors.append(f"{w} perturbed: the perturbed output passed its "
                          "check")

    # A directory with only BENCHMARK.json and perfbench/ must fail fast.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    done = run(workloads[0], 0, cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("bare directory: the benchmark did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL:", e)
    print("selftest:", "FAILED" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
