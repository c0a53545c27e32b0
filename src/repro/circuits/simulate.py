"""Plaintext netlist simulation.

The simulator is the ground truth for every other component: netlist
export must preserve its output, and the garbled evaluation must decode to
exactly the bits it produces.  It evaluates gates in netlist order, which
is topological by construction.
"""

from __future__ import annotations

from typing import List, Sequence

from .netlist import CONST_ONE, CONST_ZERO, Circuit

__all__ = ["simulate", "bits_from_int", "int_from_bits"]


def bits_from_int(value: int, width: int) -> List[int]:
    """Two's-complement little-endian bit decomposition of ``value``."""
    return [(value >> i) & 1 for i in range(width)]


def int_from_bits(bits: Sequence[int], signed: bool = False) -> int:
    """Recompose an LSB-first bit vector into an integer.

    Args:
        bits: LSB-first bit values.
        signed: interpret the most significant bit as a two's-complement
            sign bit.
    """
    value = 0
    for i, bit in enumerate(bits):
        value |= (bit & 1) << i
    if signed and bits and (bits[-1] & 1):
        value -= 1 << len(bits)
    return value


def simulate(
    circuit: Circuit,
    alice_bits: Sequence[int],
    bob_bits: Sequence[int],
    state_bits: Sequence[int] = (),
) -> List[int]:
    """Evaluate ``circuit`` on plaintext bits.

    Args:
        circuit: netlist to evaluate.
        alice_bits: garbler-side input bits, LSB-first per declared bus.
        bob_bits: evaluator-side input bits.
        state_bits: register state (sequential circuits only).

    Returns:
        Output bits in the order they were marked.
    """
    values = bytearray(circuit.n_wires)
    assignment = circuit.input_assignment(alice_bits, bob_bits, state_bits)
    for wire, bit in assignment.items():
        values[wire] = bit
    values[CONST_ZERO] = 0
    values[CONST_ONE] = 1
    for gate in circuit.gates:
        if gate.b is None:
            values[gate.out] = gate.eval(values[gate.a])
        else:
            values[gate.out] = gate.eval(values[gate.a], values[gate.b])
    return [values[w] for w in circuit.outputs]


