"""Host-speed probe: what makes timings from this host comparable.

The benchmark's host is a small VM whose speed wanders: stretches of a
few seconds run ~1.5x slower, and the quiet speed itself drifts by ~5 %
over minutes.  Ten 12-second runs of one workload gave raw median
latencies with an interquartile spread of 10 % and a range of 38 %; the
same runs, each operation divided by a probe timed right next to it,
spread 2 % and ranged 5 %.

So every time the benchmark reports is *reference seconds*: the measured
time multiplied by ``REFERENCE_S / probe``, where ``probe`` is how long a
fixed piece of CPU work took immediately before and after the
measurement and ``REFERENCE_S`` is what it takes on this host when quiet.
On a quiet host a reference second is a wall second.  The probe calls
nothing under ``src/``: it is the interpreter's own ``hashlib``, ``pow``
and bytecode loop — the primitives the garbling stack is built on — so a
change to the program cannot change the yardstick.
"""

from __future__ import annotations

import hashlib
import time

__all__ = ["REFERENCE_S", "probe", "scale"]

#: seconds one probe takes on the benchmark's host at its quiet speed
#: (the first decile of 3000 probes taken when the benchmark was defined)
REFERENCE_S = 0.00184

_PRIME = 2**255 - 19
_ROW = b"\x5a" * 24


def _kernel() -> None:
    x = 1
    for _ in range(5000):  # interpreter-bound
        x = (x * 1103515245 + 12345) % 2147483648
    sha = hashlib.sha256
    for _ in range(1000):  # the KDF's primitive, at its row size
        sha(_ROW).digest()
    for i in range(8):  # the base OT's primitive, at TEST_GROUP_512 size
        pow(3 + i, _PRIME - 2 - i, _PRIME)


def probe() -> float:
    """Seconds the fixed kernel takes right now: the best of three, so
    that an interrupt landing in one of them does not pass for host speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor turning a time measured between two probes into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
