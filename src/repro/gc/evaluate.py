"""The evaluator: walks the netlist with one label per wire.

The evaluator learns exactly one label per wire and the public permute
bits; with the half-gates construction each non-free gate costs two
hashes.  Free gates are label XORs.  The evaluator cannot decode outputs
by itself — in DeepSecure's flow it returns the output labels to the
garbler for the merge step (Sec. 2.2.2 step iv).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..circuits.gates import AND_REDUCTION, GateType
from ..circuits.netlist import CONST_ONE, CONST_ZERO, Circuit
from ..errors import GarblingError
from .cipher import HashKDF, default_kdf
from .garble import GarbledCircuit
from .labels import LabelsLike, label_ints, permute_bit

__all__ = ["Evaluator"]


class Evaluator:
    """Evaluates a garbled circuit given input labels.

    Args:
        circuit: the public netlist (topology is not secret).
        kdf: must match the garbler's oracle.
    """

    def __init__(self, circuit: Circuit, kdf: Optional[HashKDF] = None) -> None:
        self.circuit = circuit
        self.kdf = kdf or default_kdf()

    def evaluate(
        self,
        garbled: GarbledCircuit,
        alice_labels: LabelsLike,
        bob_labels: LabelsLike,
        state_labels: Optional[LabelsLike] = None,
        tweak_base: Optional[int] = None,
    ) -> Dict[int, int]:
        """Evaluate one (cycle of a) garbled circuit.

        Args:
            garbled: tables and constant labels from the garbler; the
                tables are read one row (one gate) at a time.
            alice_labels: labels of the garbler's input bits (ints or rows).
            bob_labels: labels of the evaluator's input bits (via OT).
            state_labels: carried-over register labels (sequential mode).
            tweak_base: override the tweak counter (defaults to the value
                recorded in ``garbled``).

        Returns:
            wire id -> label for every wire in the circuit.
        """
        circuit = self.circuit
        labels: Dict[int, int] = {
            CONST_ZERO: garbled.const_labels[0],
            CONST_ONE: garbled.const_labels[1],
        }
        if len(alice_labels) != circuit.n_alice:
            raise GarblingError("wrong number of Alice labels")
        if len(bob_labels) != circuit.n_bob:
            raise GarblingError("wrong number of Bob labels")
        labels.update(zip(circuit.alice_inputs, label_ints(alice_labels)))
        labels.update(zip(circuit.bob_inputs, label_ints(bob_labels)))
        state_labels = label_ints(() if state_labels is None else state_labels)
        if len(state_labels) != circuit.n_state:
            raise GarblingError("wrong number of state labels")
        labels.update(zip(circuit.state_inputs, state_labels))

        kdf = self.kdf
        tweak = garbled.tweak_base if tweak_base is None else tweak_base
        table_iter = iter(garbled.tables)
        for gate in circuit.gates:
            op = gate.op
            if op is GateType.XOR or op is GateType.XNOR:
                labels[gate.out] = labels[gate.a] ^ labels[gate.b]
            elif op is GateType.NOT or op is GateType.BUF:
                labels[gate.out] = labels[gate.a]
            else:
                if op not in AND_REDUCTION:
                    raise GarblingError(f"cannot evaluate gate type {op}")
                try:
                    row = next(table_iter)
                except StopIteration:
                    raise GarblingError("ran out of garbled tables") from None
                tg = int.from_bytes(row[:16].tobytes(), "little")
                te = int.from_bytes(row[16:].tobytes(), "little")
                wa = labels[gate.a]
                wb = labels[gate.b]
                sa = permute_bit(wa)
                sb = permute_bit(wb)
                wg = kdf.hash(wa, tweak) ^ (tg if sa else 0)
                we = kdf.hash(wb, tweak + 1) ^ ((te ^ wa) if sb else 0)
                labels[gate.out] = wg ^ we
                tweak += 2
        return labels

    def output_labels(self, wire_labels: Dict[int, int]) -> List[int]:
        """Extract the labels of the circuit's output wires."""
        return [wire_labels[w] for w in self.circuit.outputs]

    def decode_with_bits(
        self, wire_labels: Dict[int, int], decode_bits: Sequence[int]
    ) -> List[int]:
        """Decode outputs locally given the garbler's permute bits.

        Used when the garbler *shares* the result with the evaluator
        (optional last step of the protocol).
        """
        outs = self.output_labels(wire_labels)
        if len(decode_bits) != len(outs):
            raise GarblingError("decode bit count mismatch")
        return [permute_bit(l) ^ d for l, d in zip(outs, decode_bits)]
