"""Folded (sequential) dense-layer execution — paper Sec. 3.5 done live.

Instead of instantiating every MULT and ADD of a matrix-vector product,
DeepSecure garbles ONE multiply-accumulate cell plus an accumulator
register and clocks it once per weight: "A single multiplication is
performed at a time and the result is added to the previous steps".
This module builds that folded cell as a :class:`SequentialCircuit` and
drives a whole dense layer through the sequential garbling session, so
the constant-memory-footprint claim is demonstrated on the *live*
protocol, not just on gate counts.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import secrets
from typing import List, Optional, Sequence

import numpy as np

from ..circuits.arith import multiply_accumulate
from ..circuits.fixedpoint import FixedPointFormat
from ..circuits.sequential import SequentialBuilder, SequentialCircuit
from ..errors import CompileError
from ..gc.cipher import HashKDF
from ..gc.ot import MODP_2048, OTGroup
from ..gc.ot_extension import IKNPState
from ..gc.sequential import SequentialSession

__all__ = ["folded_mac_cell", "FoldedDenseResult", "run_folded_dense"]


@functools.lru_cache(maxsize=8)
def folded_mac_cell(
    fmt: FixedPointFormat, fan_in: int
) -> SequentialCircuit:
    """One MAC datapath with an accumulator register (Sec. 3.5).

    Per cycle: Alice feeds one activation word, Bob one weight word; the
    register accumulates ``acc += (x * w) >> frac``.  The accumulator is
    sized for ``fan_in`` terms so the folded run is overflow-free,
    exactly like the combinational compiler's wide adder tree.

    Memoised per ``(fmt, fan_in)``: what a circuit caches "once per
    circuit" (level schedule, step plans) is only built once if the
    circuit itself outlives the request.  Callers share the returned
    cell, which like every netlist is immutable by convention.
    """
    if fan_in < 1:
        raise CompileError("fan_in must be positive")
    product_width = 2 * fmt.width - fmt.frac_bits
    acc_width = product_width + max(1, math.ceil(math.log2(max(fan_in, 2))) + 1)
    builder = SequentialBuilder(name=f"folded_mac_{fmt.describe()}")
    x = builder.add_alice_inputs(fmt.width, name="x")
    w = builder.add_bob_inputs(fmt.width, name="w")
    acc = builder.add_registers(acc_width)
    total = multiply_accumulate(builder, acc, x, w, fmt.frac_bits)
    builder.bind_registers(acc, total)
    builder.mark_output_bus(total, name="acc")
    return builder.build_sequential()


@dataclasses.dataclass
class FoldedDenseResult:
    """Outcome of a folded dense-layer execution.

    Attributes:
        outputs: accumulator values per output unit (integer, frac
            scale) — pre-saturation, matching the combinational wide sum.
        cycles: total clock cycles garbled (= nonzero weights).
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
) -> FoldedDenseResult:
    """Compute ``x @ W`` under sequential garbling, one MAC per cycle.

    Args:
        x_fixed: the client's activation words (signed fixed integers).
        weights_fixed: (in_dim, out_dim) signed fixed integer weights
            (the server's input).
        fmt: I/O fixed-point format.
        kdf, ot_group, rng: protocol parameters.

    Returns:
        :class:`FoldedDenseResult`; ``outputs[j]`` equals the integer
        reference ``sum(fixed_mul(x_i, w_ij))``.
    """
    weights_fixed = np.asarray(weights_fixed, dtype=np.int64)
    in_dim, out_dim = weights_fixed.shape
    if len(x_fixed) != in_dim:
        raise CompileError("activation width mismatch")
    cell = folded_mac_cell(fmt, fan_in=in_dim)
    mask = (1 << fmt.width) - 1

    def bits(value: int) -> List[int]:
        pattern = int(value) & mask
        return [(pattern >> i) & 1 for i in range(fmt.width)]

    outputs: List[int] = []
    total_comm = 0
    total_cycles = 0
    acc_width = cell.n_state
    # one base OT for the whole layer, not one per output unit
    ot_state = IKNPState(group=ot_group, rng=rng)
    for j in range(out_dim):
        alice_cycles = [bits(x) for x in x_fixed]
        bob_cycles = [bits(weights_fixed[i, j]) for i in range(in_dim)]
        session = SequentialSession(
            cell, kdf=kdf, ot_group=ot_group, rng=rng, ot_state=ot_state
        )
        result = session.run(alice_cycles, bob_cycles, cycles=in_dim)
        final = result.final_outputs
        value = 0
        for i, bit in enumerate(final):
            value |= bit << i
        if value >> (acc_width - 1):
            value -= 1 << acc_width
        outputs.append(value)
        total_comm += sum(result.comm.values())
        total_cycles += in_dim
    return FoldedDenseResult(
        outputs=outputs,
        cycles=total_cycles,
        core_gates=len(cell.core.gates),
        comm_bytes=total_comm,
    )
