#!/usr/bin/env python3
"""perftrack's end-to-end benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perftrack's libraries, the perftrackd daemon and the perfbench program
from this checkout (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build
when it is unset, then runs one workload with the given seed. Standard
output ends with one JSON line: correct, attempted, failed and the metrics
BENCHMARK.json lists, the end_to_end ones with --trace 0 and the per_layer
ones with --trace 1, each with its unit. Exit status 0 when every output
check passed, 1 when one failed, 2 when nothing could be measured (no
result line). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, and a digest of the sources."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none (not a git checkout)"
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def build(build_dir):
    """Configure once, then build perfbench and the daemon it spawns."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/perftrackd.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no perftrack sources here ({needed} is missing)")
    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                          ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    commit, digest = source_id()
    print(f"source: git {commit}, source digest {digest}", flush=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(target, "runs", f"{tag}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        os.makedirs(os.path.join(target, "spans"), exist_ok=True)
        command += ["--span-dump",
                    os.path.join(target, "spans", tag + ".json")]
    # A SIGTERM unwinds through the finally below like a timeout does.
    signal.signal(signal.SIGTERM, lambda *_: fail("terminated"))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()  # its daemon follows it (parent-death signal)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        fail(f"run failed (exit {proc.returncode})")
    result = json.loads(lines[-1])

    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"the run did not report {metric['name']} "
                 f"in {metric['unit']}")
        metrics[metric["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
