"""Folded (sequential) dense-layer execution — paper Sec. 3.5 done live.

Instead of instantiating every MULT and ADD of a matrix-vector product,
DeepSecure garbles ONE multiply-accumulate cell plus an accumulator
register and clocks it once per weight: "A single multiplication is
performed at a time and the result is added to the previous steps".
This module builds that folded cell as a :class:`SequentialCircuit` and
drives a whole dense layer through the sequential garbling session, so
the constant-memory-footprint claim is demonstrated on the *live*
protocol, not just on gate counts.

Sec. 3.5 fixes that the resident netlist is constant in the layer size,
not that the constant is one multiplier: the cell takes a **fold
factor** ``u`` — ``u`` MACs per clock, ``ceil(fan_in / u)`` clocks per
output unit.  ``u = 1`` is the paper's point, ``u = fan_in`` the
combinational compiler; total table bytes per layer are the same at
every ``u`` up to the per-clock carry propagation.  The cell is the
compiler's dot-product unit (:func:`repro.circuits.arith.dot_product_fixed`)
with the accumulator register as one more addend: the ``u`` products of
a clock and the register's bits go into one bit heap and a carry is
propagated once per clock.  The ``u`` multipliers sit on the same levels
of the netlist, so the level-scheduled engine runs them as wide array
steps where the one-MAC cell is walked gate by gate.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import secrets
from typing import List, Optional, Sequence

import numpy as np

from ..circuits.arith import dot_product_fixed, sign_magnitude
from ..circuits.fixedpoint import FixedPointFormat
from ..circuits.sequential import SequentialBuilder, SequentialCircuit
from ..errors import CompileError
from ..gc.cipher import HashKDF
from ..gc.ot import MODP_2048, OTGroup
from ..gc.ot_extension import IKNPState
from ..gc.sequential import SequentialSession

__all__ = ["MAC_FOLD", "folded_mac_cell", "FoldedDenseResult", "run_folded_dense"]

#: Default fold factor: the largest power of two whose ``folded_seq``
#: ``peak_rss_mb`` (benchmarks/layered) stays within 1.08x of the one-MAC
#: cell's; the curve is ``BENCH_engine.json::pr20-fold-factor``.
MAC_FOLD = 8


def folded_mac_cell(
    fmt: FixedPointFormat, fan_in: int, fold: int = MAC_FOLD
) -> SequentialCircuit:
    """``min(fold, fan_in)`` MAC datapaths on one accumulator register.

    Per cycle: Alice feeds ``u`` activation words, Bob ``u`` weight
    words (copy-major: word ``k`` of a party is lane ``k``'s); the
    register accumulates ``acc += sum_k fixed_mul(x_k, w_k)``, every
    product at full precision.  The accumulator is sized for ``fan_in``
    terms so the folded run is overflow-free, exactly like the
    combinational compiler's dot unit, whose construction this is: one
    heap per clock seeded with the register, one carry propagation.
    ``fold=1`` is the paper's one-MAC cell.  Lanes are symmetric
    (:func:`repro.circuits.arith.sign_magnitude`): operands lie in
    ``[-H, H]``, ``H = 2**(width-1) - 1``, as everything ``fmt.encode``
    produces does, and the pattern ``-2**(width-1)`` reads as zero.

    Memoised per resolved ``(fmt, fan_in, u)``: what a circuit caches
    "once per circuit" (level schedule, step plans) is only built once
    if the circuit itself outlives the request.  Callers share the
    returned cell, which like every netlist is immutable by convention.
    """
    if fan_in < 1:
        raise CompileError("fan_in must be positive")
    if fold < 1:
        raise CompileError("fold must be positive")
    return _mac_cell(fmt, fan_in, min(fold, fan_in))


@functools.lru_cache(maxsize=8)
def _mac_cell(fmt: FixedPointFormat, fan_in: int, u: int) -> SequentialCircuit:
    acc_width = fmt.accumulator_width(fan_in)
    builder = SequentialBuilder(name=f"folded_mac_{fmt.describe()}")
    x = [builder.add_alice_inputs(fmt.width, name="x") for _ in range(u)]
    w = [builder.add_bob_inputs(fmt.width, name="w") for _ in range(u)]
    acc = builder.add_registers(acc_width)
    total = dot_product_fixed(
        builder,
        [sign_magnitude(builder, word, symmetric=True) for word in x],
        [sign_magnitude(builder, word, symmetric=True) for word in w],
        fmt.frac_bits,
        acc_width,
        addends=[acc],
    )
    builder.bind_registers(acc, total)
    builder.mark_output_bus(total, name="acc")
    return builder.build_sequential()


@dataclasses.dataclass
class FoldedDenseResult:
    """Outcome of a folded dense-layer execution.

    Attributes:
        outputs: accumulator values per output unit (integer, frac
            scale): the exact wide sum of full-precision products, not
            saturated to the I/O width.
        cycles: total clock cycles garbled: ``out_dim * ceil(in_dim / u)``
            (zero weights are clocked like any other).
        core_gates: gates in the folded core (constant in layer size).
        comm_bytes: total garbled-table traffic.
    """

    outputs: List[int]
    cycles: int
    core_gates: int
    comm_bytes: int


def run_folded_dense(
    x_fixed: Sequence[int],
    weights_fixed: np.ndarray,
    fmt: FixedPointFormat,
    kdf: Optional[HashKDF] = None,
    ot_group: OTGroup = MODP_2048,
    rng=secrets,
    fold: int = MAC_FOLD,
) -> FoldedDenseResult:
    """Compute ``x @ W`` under sequential garbling, ``u`` MACs per cycle.

    Each output unit is one run of ``ceil(in_dim / u)`` cycles of
    ``folded_mac_cell(fmt, fan_in=in_dim, fold=fold)``; both parties
    feed zero words into the spare lanes of the last cycle (a zero
    product leaves the accumulator alone).  Only the last cycle's
    accumulator is decoded: a partial sum at ``u = 1`` is a single
    product, which would hand the client the server's weights.

    Args:
        x_fixed: the client's activation words (signed fixed integers
            in ``[-H, H]``, ``H = 2**(fmt.width-1) - 1``).
        weights_fixed: (in_dim, out_dim) signed fixed integer weights
            in the same range (the server's input).
        fmt: I/O fixed-point format.
        kdf, ot_group, rng: protocol parameters.
        fold: MACs per clock (capped at ``in_dim``).

    Returns:
        :class:`FoldedDenseResult`; ``outputs[j]`` equals the integer
        reference ``sum(fixed_mul(x_i, w_ij))``, products wider than
        the I/O format included.
    """
    weights_fixed = np.asarray(weights_fixed, dtype=np.int64)
    in_dim, out_dim = weights_fixed.shape
    if len(x_fixed) != in_dim:
        raise CompileError("activation width mismatch")
    high = (1 << (fmt.width - 1)) - 1
    operands = [np.asarray(x_fixed, dtype=np.int64), weights_fixed.ravel()]
    if np.abs(np.concatenate(operands)).max(initial=0) > high:
        raise CompileError(
            f"operands must lie in [-{high}, {high}] for {fmt.describe()}"
        )
    cell = folded_mac_cell(fmt, fan_in=in_dim, fold=fold)
    lanes = cell.core.n_alice // fmt.width
    n_cycles = math.ceil(in_dim / lanes)
    mask = (1 << fmt.width) - 1

    def cycle_bits(words: Sequence[int]) -> List[List[int]]:
        """Per cycle, ``lanes`` words as one copy-major bit list."""
        patterns = [int(word) & mask for word in words]
        patterns += [0] * (n_cycles * lanes - in_dim)
        return [
            [
                (pattern >> i) & 1
                for pattern in patterns[c * lanes:(c + 1) * lanes]
                for i in range(fmt.width)
            ]
            for c in range(n_cycles)
        ]

    outputs: List[int] = []
    total_comm = 0
    acc_width = cell.n_state
    alice_cycles = cycle_bits(x_fixed)
    # one base OT for the whole layer, not one per output unit
    ot_state = IKNPState(group=ot_group, rng=rng)
    for j in range(out_dim):
        session = SequentialSession(
            cell, kdf=kdf, ot_group=ot_group, rng=rng, ot_state=ot_state
        )
        result = session.run(
            alice_cycles, cycle_bits(weights_fixed[:, j]), cycles=n_cycles,
            final_only=True,
        )
        value = 0
        for i, bit in enumerate(result.final_outputs):
            value |= bit << i
        if value >> (acc_width - 1):
            value -= 1 << acc_width
        outputs.append(value)
        total_comm += sum(result.comm.values())
    return FoldedDenseResult(
        outputs=outputs,
        cycles=out_dim * n_cycles,
        core_gates=len(cell.core.gates),
        comm_bytes=total_comm,
    )
