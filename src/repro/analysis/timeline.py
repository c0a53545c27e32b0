"""Figure 5: the sequential-GC pipeline timing diagram.

The protocol phases overlap across clock cycles: while Bob evaluates
cycle ``i``, Alice already garbles cycle ``i+1``, and the garbled-table
transfer of cycle ``i+1`` overlaps both — so "the total execution time
of the protocol is not the summation of the execution time of both
parties" (Sec. 4.4).  :func:`schedule` builds the overlapped schedule
from per-cycle phase durations (measured from a
:class:`repro.gc.sequential.SequentialResult` or synthetic), computes
the makespan, and renders an ASCII Gantt chart like the paper's figure.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..gc.sequential import SequentialResult

__all__ = ["Interval", "PipelineSchedule", "schedule", "schedule_from_result", "ascii_gantt"]


@dataclasses.dataclass(frozen=True)
class Interval:
    """One scheduled phase instance."""

    actor: str  # "alice", "wire", "bob"
    label: str  # e.g. "garble[2]"
    start: float
    end: float


@dataclasses.dataclass
class PipelineSchedule:
    """The overlapped schedule plus its headline numbers.

    Attributes:
        intervals: all scheduled phase instances.
        makespan: end-to-end pipelined time.
        serial_time: sum of all phase durations (no overlap).
    """

    intervals: List[Interval]
    makespan: float
    serial_time: float

    @property
    def speedup(self) -> float:
        """Pipelining gain (1.0 = no overlap benefit)."""
        return self.serial_time / self.makespan if self.makespan else 1.0


def schedule(
    garble_times: Sequence[float],
    transfer_times: Sequence[float],
    evaluate_times: Sequence[float],
    ot_time: float = 0.0,
) -> PipelineSchedule:
    """Build the Fig. 5 overlapped schedule.

    Dependencies per cycle ``i``:

    * garble[i] follows garble[i-1] (Alice is sequential);
    * transfer[i] follows garble[i] and transfer[i-1] (one link);
    * evaluate[i] follows transfer[i] and evaluate[i-1] (Bob is
      sequential); the OT (inputs) precedes evaluate[0].
    """
    cycles = len(garble_times)
    if not (len(transfer_times) == len(evaluate_times) == cycles):
        raise ValueError("per-cycle duration lists must align")
    intervals: List[Interval] = []
    garble_done = 0.0
    transfer_done = 0.0
    evaluate_done = ot_time
    if ot_time:
        intervals.append(Interval("wire", "OT", 0.0, ot_time))
    for i in range(cycles):
        g_start = garble_done
        g_end = g_start + garble_times[i]
        garble_done = g_end
        intervals.append(Interval("alice", f"garble[{i}]", g_start, g_end))
        t_start = max(g_end, transfer_done)
        t_end = t_start + transfer_times[i]
        transfer_done = t_end
        intervals.append(Interval("wire", f"transfer[{i}]", t_start, t_end))
        e_start = max(t_end, evaluate_done)
        e_end = e_start + evaluate_times[i]
        evaluate_done = e_end
        intervals.append(Interval("bob", f"evaluate[{i}]", e_start, e_end))
    serial = (
        sum(garble_times) + sum(transfer_times) + sum(evaluate_times) + ot_time
    )
    return PipelineSchedule(
        intervals=intervals, makespan=evaluate_done, serial_time=serial
    )


def schedule_from_result(
    result: SequentialResult,
    bandwidth_bytes_per_s: float = 1e9,
) -> PipelineSchedule:
    """Schedule from a measured :class:`SequentialResult`.

    Transfer time per cycle is modelled from the garbled-table size at
    the given bandwidth (the in-memory channel has no latency of its
    own).
    """
    cycles = len(result.garble_times)
    per_cycle_bytes = 32 * result.n_non_xor_per_cycle
    transfer = [per_cycle_bytes / bandwidth_bytes_per_s] * cycles
    return schedule(result.garble_times, transfer, result.evaluate_times)


def ascii_gantt(sched: PipelineSchedule, width: int = 70) -> str:
    """Render the schedule as a three-row Gantt chart (Fig. 5 style)."""
    if not sched.intervals:
        return "(empty schedule)"
    total = sched.makespan or 1.0
    rows = {"alice": [" "] * width, "wire": [" "] * width, "bob": [" "] * width}
    marks = {"alice": "G", "wire": "=", "bob": "E"}
    for interval in sched.intervals:
        row = rows[interval.actor]
        lo = int(interval.start / total * (width - 1))
        hi = max(lo + 1, int(interval.end / total * (width - 1)))
        for col in range(lo, min(hi, width)):
            row[col] = marks[interval.actor]
    lines = [
        f"Alice  |{''.join(rows['alice'])}|",
        f"wire   |{''.join(rows['wire'])}|",
        f"Bob    |{''.join(rows['bob'])}|",
        f"makespan={sched.makespan:.4f}s serial={sched.serial_time:.4f}s "
        f"pipeline speedup={sched.speedup:.2f}x",
    ]
    return "\n".join(lines)
