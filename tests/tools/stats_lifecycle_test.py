#!/usr/bin/env python3
"""`agt_tool stats` exports its lifecycle percentiles from the registry's
service.job.*_us histograms, which keep their exact range: with one job,
every percentile is that job's own time in microseconds, exactly.

usage: stats_lifecycle_test.py AGT_TOOL WORKDIR
"""
import json
import os
import subprocess
import sys


def main() -> int:
    tool, workdir = sys.argv[1], sys.argv[2]
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "stats_lifecycle.json")
    subprocess.run([tool, "stats", "--jobs=1", "--threads=2", "--scale=9",
                    "--json=" + out], check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        doc = json.load(f)
    (job,) = doc["jobs"]
    lifecycle = doc["sections"]["lifecycle"]
    failures = []
    for name, field in (("queue_wait_us", "queue_wait_seconds"),
                        ("run_us", "run_seconds"),
                        ("total_us", "total_seconds")):
        want = int(job[field] * 1e6)  # the engine truncates to whole us
        for p in ("p50", "p95", "p99"):
            got = lifecycle[name][p]
            if got != want:
                failures.append(f"lifecycle.{name}.{p} = {got}, but the "
                                f"job's {field} is {want} us")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
