#!/usr/bin/env python3
"""Minimal-length run of every workload, untraced and traced.

    smoke.py PATH/TO/perfbench

Each run uses --seconds 0 (the workloads still measure until every
percentile they report has ten samples beyond it). A run passes when it
exits 0, reports fail_ratio 0, and its result line names every metric
BENCHMARK.json lists for its mode, with the listed unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def run(binary, workload, trace, workdir):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--workdir", workdir],
        stdout=subprocess.PIPE, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None


def main():
    binary = os.path.abspath(sys.argv[1])
    with open(SPEC) as f:
        spec = json.load(f)
    workdir = os.path.join(os.path.dirname(binary), "smoke")
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(binary, workload, trace, workdir)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{where}: exit {code}")
                continue
            metrics = result["metrics"]
            if result["failed"] != 0 or (
                    trace == 0 and metrics["fail_ratio"]["value"] != 0):
                failures.append(f"{where}: failed ops {result['failed']}")
            for metric in spec[group]:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{where}: {metric['name']} missing")
            print(f"ok {where}: {len(metrics)} metrics, "
                  f"{result['attempted']} ops")
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
