#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the repository's core library and the perfbench program from source
(CMake, into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
inside the checkout), runs the workload in one process, and relays its
output. The last line of standard output is the JSON result. Workloads,
metrics and their bounds are listed in BENCHMARK.json; what each metric
means on each workload, and the layer-to-end-to-end metric map, are in
perfbench/layers.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")

# Pool workers per workload. Together with the workload's own threads
# (producer, dashboard reader, or the batch thread) no workload runs more
# than four threads in one process.
WORKERS = {"live_paced": 2, "event_storm": 3, "cold_start_batch": 3}

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build the perfbench target (incremental)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", PACKAGE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--perturb", type=int, choices=(0, 1), default=0,
                        help="self-test only: corrupt one output before its "
                             "check, which must then fail")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing next to perfbench/: the benchmark "
                 "builds the program from the repository sources")

    out_dir = build_dir()
    binary = build(out_dir)
    env = dict(os.environ, TSUNAMI_NUM_THREADS=str(WORKERS[args.workload]))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--perturb", str(args.perturb),
           "--work-dir", os.path.join(out_dir, "work")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = output.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(output[-4000:])
        fail(f"{args.workload} exited with code {proc.returncode}")
    json.loads(lines[-1])  # refuse to relay a malformed result
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
