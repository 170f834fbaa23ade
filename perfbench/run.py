#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_churn --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ with CMake into the build directory
($CARGO_TARGET_DIR, default .bench_build), runs the perfbench binary for
one workload, and prints its report followed, as the last line, by one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Exits non-zero, without that line
when nothing was measured, if the build fails, a metric is missing, or
a correctness gate fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "gqr.h")):
        fail("run from the root of a gqr source checkout (no src/gqr.h)")
    # Configure output goes to stderr: stdout carries only the report.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "perfbench"],
        check=True, stdout=sys.stderr)


def keep_off_cpu0():
    """Runs the benchmark off CPU 0 when at least four CPUs are available.

    On virtualised hosts CPU 0 also takes the guest's interrupts and is
    preempted by the host for tens of milliseconds at a time, which the
    serving latencies would otherwise measure. The benchmark's 4 threads
    keep at most 3 CPUs busy (the generator and the writer mostly sleep).
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) >= 4 and 0 in cpus:
        os.sched_setaffinity(0, cpus - {0})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in bench[kind]]
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              preexec_fn=keep_off_cpu0)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s", 3)
    if not os.path.isfile(out):
        fail(f"perfbench exited with {proc.returncode} and wrote no result",
             3)
    with open(out) as f:
        result = json.load(f)

    measured = result[kind]
    metrics = {}
    for name in wanted:
        m = measured.get(name)
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            fail(f"metric {name} was not measured", 3)
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
