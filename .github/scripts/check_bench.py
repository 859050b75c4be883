#!/usr/bin/env python3
"""Gate CI on perftrack bench run reports.

The perf_* benches check two different kinds of property, and CI must
treat them differently:

  * correctness verdicts — bit-identity of incremental vs batch results,
    of the fast vs reference engines and of restarted vs uninterrupted
    daemons, every request answered.
    These hold on any machine, so a violation fails the build.
  * timing bars — e.g. the >= 5x evolution-study speedup perf_session
    asserts locally. Shared CI runners make wall-clock ratios flaky, so
    a miss is only a workflow warning; the numbers still land in the
    uploaded BENCH_*.json artifacts for trend-watching.

Benches export both as gauges in their run report (the
"perftrack-run-report" schema `perftrack --profile` writes), using a
naming convention this script enforces:

  verdict_*    correctness verdict; anything but 1.0 fails CI
  advisory_*   environment-sensitive number. 0.0/1.0 is a pass/fail
               bar (a miss warns); any other value is a tracked
               quantity (latency quantiles, overhead percentages)
               printed for trend-watching, never a warning
  (others)     informational numbers, printed for the log

Usage: check_bench.py [--require NAME ...] BENCH_session.json [...]
Each --require NAME asserts that the named verdict_* gauge is present (in
at least one report) and holds — so a bench silently dropping a verdict
cannot turn the gate green.
Exit codes: 0 all verdicts hold, 1 verdict violation, 2 unusable report
(missing file, wrong schema, no verdict gauges, or a required verdict
missing from every report).
"""

import json
import sys


def fail(message: str) -> None:
    print(f"::error::{message}")


def warn(message: str) -> None:
    print(f"::warning::{message}")


def check_report(path: str, seen_verdicts: set) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read bench report {path}: {error}")
        return 2

    if report.get("schema") != "perftrack-run-report":
        fail(f"{path} is not a perftrack-run-report "
             f"(schema={report.get('schema')!r})")
        return 2

    gauges = report.get("gauges", {})
    verdicts = {k: v for k, v in gauges.items() if k.startswith("verdict_")}
    seen_verdicts.update(verdicts)
    if not verdicts:
        fail(f"{path} exports no verdict_* gauges; "
             "was the bench rebuilt without them?")
        return 2

    label = report.get("label", path)
    status = 0
    for name, value in sorted(gauges.items()):
        if name.startswith("verdict_"):
            if value == 1.0:
                print(f"{label}: {name} holds")
            else:
                fail(f"{label}: correctness verdict {name} FAILED "
                     f"(value {value:g}) — see the bench log")
                status = 1
        elif name.startswith("advisory_"):
            if value == 1.0:
                print(f"{label}: {name} met")
            elif value == 0.0:
                warn(f"{label}: advisory bar {name} not met "
                     f"(advisory on shared runners)")
            else:
                print(f"{label}: {name} = {value:g} (advisory)")
        else:
            print(f"{label}: {name} = {value:g}")
    return status


def main() -> int:
    required = []
    paths = []
    args = sys.argv[1:]
    while args:
        arg = args.pop(0)
        if arg == "--require":
            if not args:
                fail("--require needs a verdict name")
                return 2
            required.append(args.pop(0))
        else:
            paths.append(arg)
    if not paths:
        fail("usage: check_bench.py [--require NAME ...] BENCH_report.json ...")
        return 2

    seen_verdicts: set = set()
    status = max(check_report(path, seen_verdicts) for path in paths)
    for name in required:
        if name not in seen_verdicts:
            fail(f"required verdict {name} missing from every report — "
                 "was the bench rebuilt without it?")
            status = max(status, 2)
    return status


if __name__ == "__main__":
    sys.exit(main())
