"""One workload in one fresh process: set up, say so, measure, report.

``run.py`` starts this file once per measurement (and a few more times
with ``--setup-only``, to time set-up more than once).  Standard output
carries exactly two JSON lines: ``{"ready": true}`` when set-up and the
warm-up operation are done — the parent stops its set-up clock on it —
and the measurements when the window has closed.

Every operation is timed between two host-speed probes and reported in
reference seconds (see :mod:`hostspeed`).

With ``--trace 1`` the wraps of :mod:`layers` are in place during set-up,
taken out for the first half of the window and put back for the second,
so that one process yields the set-up spans, an untraced median and the
traced operations; the ratio of the two medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import pathlib
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

from hostspeed import probe, scale
from layers import OP_SPAN, SETUP, WRAPS, layer_metrics, missing_layers
from tracer import Tracer
from workloads import WORKLOADS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_TICKS = os.sysconf("SC_CLK_TCK")


def _proc_file(pid: int, name: str) -> str:
    try:
        return pathlib.Path(f"/proc/{pid}/{name}").read_text()
    except OSError:  # the child has just exited
        return ""


def cpu_seconds() -> float:
    """User+system CPU of this process, its live children and its reaped ones."""
    times = os.times()
    total = time.process_time() + times.children_user + times.children_system
    for child in multiprocessing.active_children():
        # the command name may hold spaces; the numeric fields resume after
        # its ")", utime and stime being the 12th and 13th of those
        fields = _proc_file(child.pid, "stat").rpartition(")")[2].split()
        if len(fields) > 12:
            total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of each live child."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        for line in _proc_file(child.pid, "status").splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


@dataclasses.dataclass
class Window:
    """What one stretch of operations measured.

    ``latencies`` and ``cpu_s`` are in reference seconds, one entry per
    operation; ``scales`` are the factors that made them so.
    """

    first_op: int = 0
    latencies: List[float] = dataclasses.field(default_factory=list)
    cpu_s: List[float] = dataclasses.field(default_factory=list)
    scales: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    #: per operation, the traffic each of its requests reported
    comm_bytes: List[List[int]] = dataclasses.field(default_factory=list)
    reported_s: float = 0.0


class Harness:
    """Drives one workload's operations and judges every output."""

    def __init__(self, workload: Any, tracer: Optional[Tracer]) -> None:
        self.workload = workload
        self.tracer = tracer
        self.next_op = 0
        #: traffic of the first request; every later one must match it
        self.comm_bytes: Optional[int] = None

    def operation(self, window: Window, traced: bool, before: float) -> float:
        """Run the next operation between two probes and check what came back.

        Returns the probe taken after it, which is the next one's ``before``.
        """
        index = self.next_op
        self.next_op += 1
        requests = self.workload.requests_per_op
        outcomes: List[Any] = []
        problems: List[str] = []
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            if traced and self.tracer is not None:
                self.tracer.request = f"op-{index}"
                with self.tracer.span(OP_SPAN):
                    outcomes = self.workload.run(index)
            else:
                outcomes = self.workload.run(index)
        except Exception as exc:  # a raised operation is a failed one, not a crash
            problems = [f"raised {type(exc).__name__}: {exc}"] * requests
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        after = probe()
        factor = scale(before, after)
        window.scales.append(factor)
        window.latencies.append(wall * factor)
        window.cpu_s.append(cpu * factor)
        window.comm_bytes.append([outcome.comm_bytes for outcome in outcomes])
        window.reported_s += factor * sum(outcome.reported_s for outcome in outcomes)
        problems = problems or self.judge(outcomes)
        window.attempted += requests
        window.failed += len(problems)
        window.failures += [f"op {index}: {p}" for p in problems]
        return after

    def judge(self, outcomes: List[Any]) -> List[str]:
        """What is wrong with one operation's outcomes (nothing, if all is well)."""
        requests = self.workload.requests_per_op
        if len(outcomes) != requests:
            return [f"{len(outcomes)} results for {requests} requests"] * requests
        problems = []
        for slot, outcome in enumerate(outcomes):
            if self.comm_bytes is None and outcome.error is None:
                self.comm_bytes = outcome.comm_bytes
            if outcome.error is not None:
                problems.append(f"request {slot}: error {outcome.error}")
            elif outcome.value != outcome.expected:
                problems.append(
                    f"request {slot}: got {outcome.value}, expected {outcome.expected}"
                )
            elif outcome.comm_bytes != self.comm_bytes:
                problems.append(
                    f"request {slot}: {outcome.comm_bytes} bytes on the wire, "
                    f"earlier requests {self.comm_bytes}"
                )
            elif outcome.problem is not None:
                problems.append(f"request {slot}: {outcome.problem}")
        return problems

    def measure(self, seconds: float, max_ops: Optional[int], traced: bool = False) -> Window:
        """Operations back to back until ``seconds`` have passed (or ``max_ops``)."""
        window = Window(first_op=self.next_op)
        start = time.perf_counter()
        last_probe = probe()
        while True:
            last_probe = self.operation(window, traced, last_probe)
            if time.perf_counter() - start >= seconds:
                break
            if max_ops is not None and len(window.latencies) >= max_ops:
                break
        return window

    def reconcile(self, window: Window, n_non_xor: int) -> None:
        """Check the traced frames against the traffic the program reports.

        Every garbled-table frame must be ``32 * n_non_xor + 4`` bytes, and
        the frames of an operation must add up to its ``comm_bytes``.
        """
        assert self.tracer is not None
        sent: Dict[Optional[str], List[Dict[str, Any]]] = {}
        for span in self.tracer.spans:
            if span.name == "gc.channel.send" and span.attrs:
                sent.setdefault(span.request, []).append(span.attrs)
        requests = self.workload.requests_per_op
        for offset in range(len(window.latencies)):
            index = window.first_op + offset
            frames = sent.get(f"op-{index}", [])
            reported = sum(window.comm_bytes[offset])
            problems = [
                f"tables frame of {f['bytes']} bytes, expected {32 * n_non_xor + 4}"
                for f in frames
                if f["tag"] == "tables" and f["bytes"] != 32 * n_non_xor + 4
            ]
            if sum(f["bytes"] for f in frames) != reported:
                problems.append(
                    f"frames carry {sum(f['bytes'] for f in frames)} bytes, "
                    f"results report {reported}"
                )
            if problems:
                window.failed = min(window.failed + requests, window.attempted)
                window.failures += [f"op {index}: {p}" for p in problems]


def end_to_end(window: Window, requests_per_op: int) -> Dict[str, float]:
    """The end-to-end metrics one window supports (``setup_s`` is the parent's).

    Latency and CPU are medians over operations; throughput is everything
    completed over the sum of the operation times, so a stall in any one
    operation shows there and not in the medians.
    """
    return {
        "latency_p50_s": statistics.median(window.latencies),
        "throughput_rps": (window.attempted - window.failed) / sum(window.latencies),
        "cpu_s_per_req": statistics.median(window.cpu_s) / requests_per_op,
        "comm_bytes_per_req": statistics.median(
            [size for sizes in window.comm_bytes for size in sizes] or [0]
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_windows(harness: Harness, tracer: Tracer, seconds: float) -> List[Window]:
    """The ``--trace 1`` window: first half with the wraps out, second half with them in."""
    max_ops = harness.workload.max_ops
    first = None if max_ops is None else max_ops // 2
    tracer.uninstall()
    tracer.request = None
    untraced = harness.measure(seconds / 2, first)
    tracer.install(WRAPS)
    rest = None if max_ops is None else max_ops - len(untraced.latencies)
    traced = harness.measure(seconds / 2, rest, traced=True)
    tracer.uninstall()
    return [untraced, traced]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    missing: List[str] = []
    if tracer is not None:
        missing = tracer.install(WRAPS)
        tracer.request = SETUP
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.setup()
    try:
        harness = Harness(workload, tracer)
        # one untimed operation: level schedule, KDF calibration, first fork
        warmup = harness.measure(0.0, 1)
        print(json.dumps({"ready": True}), flush=True)
        if args.setup_only:
            return 0
        if tracer is None:
            windows = [harness.measure(args.seconds, workload.max_ops)]
        else:
            windows = traced_windows(harness, tracer, args.seconds)
        finish = workload.finish()
        measured = windows[-1]
        report: Dict[str, Any]
        if tracer is None:
            report = {"metrics": end_to_end(measured, workload.requests_per_op)}
        else:
            facts = workload.facts()
            if workload.reconciles:
                harness.reconcile(measured, facts["n_non_xor"])
            report = {
                "metrics": layer_metrics(
                    tracer.spans,
                    scales={
                        f"op-{measured.first_op + i}": factor
                        for i, factor in enumerate(measured.scales)
                    },
                    requests=measured.attempted,
                    facts=facts,
                    finish=finish,
                    reported_s=measured.reported_s,
                    traced_p50=statistics.median(measured.latencies),
                    untraced_p50=statistics.median(windows[0].latencies),
                ),
                "missing_layers": missing_layers(missing),
            }
            RESULTS_DIR.mkdir(exist_ok=True)
            tracer.dump(RESULTS_DIR / f"trace-{args.workload}.jsonl")
        windows.insert(0, warmup)
        attempted = sum(w.attempted for w in windows)
        report.update(
            attempted=attempted,
            # a degraded or restarted shard taints every request it may have served
            failed=attempted if finish["problems"] else sum(w.failed for w in windows),
            failures=[f for w in windows for f in w.failures]
            + [f"end of run: {p}" for p in finish["problems"]],
            latencies=measured.latencies,
            wall_latency_p50_s=statistics.median(
                t / f for t, f in zip(measured.latencies, measured.scales)
            ),
            host_speed=statistics.median(measured.scales),
        )
        print(json.dumps(report), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
