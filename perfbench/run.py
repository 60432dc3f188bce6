#!/usr/bin/env python3
"""AsyncGT benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The script

  1. builds perfbench/ (CMake, RelWithDebInfo) into .bench_build/cmake,
  2. generates the seeded inputs of W into .bench_build/inputs (cached per
     input family and seed; generation is not part of any metric),
  3. runs the workload for S seconds in one process and passes its
     per-metric lines through,
  4. prints, as the last line, {"correct", "attempted", "failed", "metrics"}
     with exactly the metrics BENCHMARK.json declares: the end_to_end list
     with --trace 0, the per_layer list with --trace 1.

Full results (host fingerprint, input checksums, every metric with its
sample count) land in .bench_build/results/, and the traced pass's spans
beside them. Workloads: im-query, im-jobs, sem-query, dyn-refresh.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
BINARY = os.path.join(BUILD, "agt_perfbench")
WORKLOADS = ("im-query", "im-jobs", "sem-query", "dyn-refresh")
# The whole invocation, build excluded, must end well inside 180 s.
RUN_BUDGET_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def step(cmd, timeout, what):
    """Runs cmd with its output on stderr; the child is killed and reaped
    if it outlives timeout."""
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    if r.returncode != 0:
        fail(f"{what} failed (exit {r.returncode})")


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, cwd=ROOT,
                             timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, cwd=ROOT,
                             timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    if not os.path.isfile(os.path.join(ROOT, "src", "asyncgt.hpp")):
        fail("library sources (src/) not found; run from a full checkout")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(WORK, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300, "configure")
    step(["cmake", "--build", BUILD, "-j4", "--target", "agt_perfbench"],
         850, "build")

    start = time.monotonic()
    inputs = os.path.join(WORK, "inputs")
    step([BINARY, "gen", "--workload", args.workload, "--seed",
          str(args.seed), "--inputs-root", inputs], 120, "input generation")

    left = RUN_BUDGET_S - (time.monotonic() - start)
    cmd = [BINARY, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--inputs-root", inputs,
           "--results-dir", os.path.join(WORK, "results"),
           "--git-sha", git_sha()]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail(f"workload run failed (exit {r.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"{args.workload} did not report {m['name']}", 3)
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}", 3)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
