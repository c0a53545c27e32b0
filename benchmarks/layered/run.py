"""Layered end-to-end benchmark: one command, five workloads, two views.

Driver form (the contract in ``BENCHMARK.json``)::

    python3 benchmarks/layered/run.py --workload dl_cold --seed 3 --seconds 12 --trace 0

runs one workload in a fresh child process and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.

Suite form::

    python3 benchmarks/layered/run.py --seed 0 [--quick | --self-check]

runs every workload both ways and prints every metric by name with its
unit.  ``--self-check`` runs the untraced suite twice and holds the two
against each metric's bound; ``--quick`` is a smoke test of a tenth of
the window whose numbers mean nothing.

Metric names, units, bounds and the window length are read from
``BENCHMARK.json``; how each is measured is in ``README.md`` next to
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from tracer import tail_percentile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: set-up is timed this many times per untraced run, in fresh processes,
#: and reported as the median
SETUP_REPEATS = 3
#: no child may outlive this (the driver allows a run 180 s)
CHILD_TIMEOUT_S = 170.0


def spawn_child(
    workload: str, seed: int, seconds: float, trace: int, setup_only: bool
) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run ``child.py`` once: (seconds from launch to ready, its report)."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    # the same dict and set layout, and so the same timing, in every child
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        assert process.stdout is not None
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = process.stdout.read()
    except BaseException:
        process.kill()
        raise
    finally:
        watchdog.cancel()
        process.wait()
    if process.returncode != 0 or not ready.strip():
        raise RuntimeError(
            f"{workload}: child exited with code {process.returncode} "
            f"{'during set-up' if not ready.strip() else 'after set-up'}"
        )
    return setup_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One run of one workload; the report carries every metric of its view."""
    setups = [
        spawn_child(workload, seed, seconds, trace, setup_only=True)[0]
        for _ in range(0 if trace else SETUP_REPEATS - 1)
    ]
    setup_s, report = spawn_child(workload, seed, seconds, trace, setup_only=False)
    assert report is not None
    if not trace:
        report["metrics"]["setup_s"] = statistics.median(setups + [setup_s])
    return report


def result_line(report: Dict[str, Any], declared: List[Dict[str, str]]) -> str:
    """The driver's JSON object: exactly the declared metrics, with units."""
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
                for m in declared
            },
        }
    )


def describe(workload: str, report: Dict[str, Any], declared: List[Dict[str, str]]) -> None:
    """Print one report for a reader: metrics, sample count, tail, failures."""
    for metric in declared:
        value = report["metrics"][metric["name"]]
        print(f"  {workload:18s} {metric['name']:38s} {value:14.6g} {metric['unit']}")
    latencies = report["latencies"]
    note = (
        f"n = {len(latencies)} operations; host at {report['host_speed']:.2f} of reference "
        f"speed (median wall latency {report['wall_latency_p50_s']:.6g} s)"
    )
    for q in (99, 95, 90, 75):
        try:
            tail = tail_percentile(latencies, q)
        except ValueError:
            continue
        note += f"; diagnostic latency_p{q}_s = {tail:.6g} s"
        break
    else:
        note += "; no percentile above the median has ten samples beyond it"
    print(f"  {workload:18s} {note}")
    if report.get("missing_layers"):
        print(f"  {workload:18s} missing_layers: {', '.join(report['missing_layers'])}")
    for failure in report["failures"]:
        print(f"  {workload:18s} FAILED {failure}")


def self_check(
    contract: Dict[str, Any], seed: int, seconds: float
) -> int:
    """Two untraced suites back to back, compared against each bound."""
    passes = [
        {
            w["name"]: run_workload(w["name"], seed, seconds, trace=0)
            for w in contract["workloads"]
        }
        for _ in range(2)
    ]
    verdicts = []
    print(f"{'workload':18s} {'metric':22s} {'first':>12s} {'second':>12s} {'gap':>8s} bound")
    for workload in passes[0]:
        for metric in contract["end_to_end"]:
            first, second = (p[workload]["metrics"][metric["name"]] for p in passes)
            gap = abs(second - first) / first
            verdicts.append(gap <= metric["bound"])
            print(
                f"{workload:18s} {metric['name']:22s} {first:12.6g} {second:12.6g} "
                f"{gap:8.2%} {metric['bound']:.2f} {'PASS' if verdicts[-1] else 'FAIL'}"
            )
    failed = sum(p[w]["failed"] for p in passes for w in p)
    print(f"{verdicts.count(False)} of {len(verdicts)} comparisons FAIL; {failed} requests failed")
    return 0 if all(verdicts) and not failed else 1


def suite(contract: Dict[str, Any], seed: int, seconds: float) -> int:
    """Every workload, untraced then traced; non-zero if any request failed."""
    failed = 0
    for entry in contract["workloads"]:
        name = entry["name"]
        print(f"{name}: {entry['why']}")
        for trace, view in ((0, "end_to_end"), (1, "per_layer")):
            report = run_workload(name, seed, seconds, trace)
            describe(name, report, contract[view])
            failed += report["failed"]
    print(f"{failed} requests failed")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (driver form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="window length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--quick", action="store_true", help="smoke mode: a tenth of the window")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    if args.quick:
        seconds /= 10
        print("SMOKE MODE (--quick): a tenth of the window; these numbers are not measurements")

    if args.workload is None:
        if args.self_check:
            return self_check(contract, args.seed, seconds)
        return suite(contract, args.seed, seconds)
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    report = run_workload(args.workload, args.seed, seconds, args.trace)
    view = contract["per_layer" if args.trace else "end_to_end"]
    describe(args.workload, report, view)
    print(result_line(report, view))
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
