"""GC performance characterization (paper Sec. 4.3-4.4).

The paper measures 62/164 CPU cycles per XOR/non-XOR gate and an
effective end-to-end throughput of 2.56M non-XOR (5.11M XOR) gates per
second.  :func:`characterize` runs the same microbenchmark on the engine
that serves requests (:class:`~repro.gc.garble.Garbler` +
:class:`~repro.gc.fastgarble.FastEvaluator`): garble+evaluate a chain
circuit of known composition, divide.
The result is a :class:`CostCoefficients` for this host, so every cost-
model query can be answered under either the paper's testbed or ours.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from ..circuits.builder import CircuitBuilder
from ..compile.paper_costs import PAPER_COEFFICIENTS, CostCoefficients
from ..gc.cipher import HashKDF, default_kdf
from ..gc.fastgarble import FastEvaluator
from ..gc.garble import Garbler

__all__ = ["ThroughputReport", "characterize", "build_gate_chain"]


@dataclasses.dataclass(frozen=True)
class ThroughputReport:
    """Measured per-gate costs of this host's garbling engine.

    Attributes:
        xor_gates / non_xor_gates: benchmark circuit composition.
        garble_s / evaluate_s: wall-clock seconds.
        non_xor_per_s: combined garble+evaluate non-XOR throughput.
        xor_per_s: throughput of a free-gate-only circuit.
        coefficients: a CostCoefficients with this host's numbers
            (cycles estimated at the paper's 3.4 GHz for comparability).
    """

    xor_gates: int
    non_xor_gates: int
    garble_s: float
    evaluate_s: float
    non_xor_per_s: float
    xor_per_s: float
    coefficients: CostCoefficients

    @property
    def slowdown_vs_paper(self) -> float:
        """How much slower this engine is than the paper's AES-NI C++."""
        return PAPER_COEFFICIENTS.effective_non_xor_per_s / self.non_xor_per_s


def build_gate_chain(n_gates: int, gate: str = "and"):
    """A long dependency chain of one gate type (cache-unfriendly worst
    case, like a folded sequential datapath)."""
    builder = CircuitBuilder(name=f"chain_{gate}_{n_gates}")
    a = builder.add_alice_inputs(2)
    b = builder.add_bob_inputs(2)
    wire = a[0]
    other = b[0]
    emit = {"and": builder.emit_and, "xor": builder.emit_xor}[gate]
    for i in range(n_gates):
        wire = emit(wire, other)
        other = a[1] if i % 2 == 0 else b[1]
    builder.mark_output(wire)
    return builder.build()


def characterize(
    n_gates: int = 20000, kdf: Optional[HashKDF] = None
) -> ThroughputReport:
    """Microbenchmark this host's garble/evaluate throughput.

    Args:
        n_gates: chain length per gate type.
        kdf: garbling oracle (default: fixed-key AES).
    """
    kdf = kdf or default_kdf()
    import random

    rng = random.Random(0)

    def run(gate: str):
        circuit = build_gate_chain(n_gates, gate)
        # cached per circuit and paid at service set-up, not per request
        circuit.level_schedule()
        garbler = Garbler(circuit, kdf=kdf, rng=rng)
        start = time.perf_counter()
        garbled = garbler.garble()
        garble_s = time.perf_counter() - start
        evaluator = FastEvaluator(circuit, kdf=kdf)
        alice = garbler.input_labels_for(list(circuit.alice_inputs), [1, 0])
        bob = [garbler.labels.select(w, 1) for w in circuit.bob_inputs]
        start = time.perf_counter()
        evaluator.evaluate(garbled, alice, bob)
        evaluate_s = time.perf_counter() - start
        return garble_s, evaluate_s

    and_garble, and_eval = run("and")
    xor_garble, xor_eval = run("xor")
    non_xor_per_s = n_gates / (and_garble + and_eval)
    xor_per_s = n_gates / max(xor_garble + xor_eval, 1e-9)
    coefficients = CostCoefficients(
        xor_clks=PAPER_COEFFICIENTS.cpu_hz / max(xor_per_s, 1e-9),
        non_xor_clks=PAPER_COEFFICIENTS.cpu_hz / max(non_xor_per_s, 1e-9),
        cpu_hz=PAPER_COEFFICIENTS.cpu_hz,
        bits_per_non_xor=PAPER_COEFFICIENTS.bits_per_non_xor,
        effective_non_xor_per_s=non_xor_per_s,
        effective_xor_per_s=xor_per_s,
    )
    return ThroughputReport(
        xor_gates=n_gates,
        non_xor_gates=n_gates,
        garble_s=and_garble,
        evaluate_s=and_eval,
        non_xor_per_s=non_xor_per_s,
        xor_per_s=xor_per_s,
        coefficients=coefficients,
    )
