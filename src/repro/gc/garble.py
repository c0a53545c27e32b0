"""The garbler: free-XOR + point-and-permute + half-gates.

Implements the paper's optimization stack (Sec. 2.3):

* **Free-XOR** (Kolesnikov-Schneider): XOR/XNOR/NOT cost nothing.
* **Point-and-permute + row-reduction + half-gates** (Zahur-Rosulek-
  Evans): every remaining 2-input gate costs exactly two 128-bit
  ciphertexts, which is where the paper's ``alpha = 2 x 128 bit`` per
  non-XOR gate communication figure comes from.
* **Fixed-key cipher** (Bellare et al.): the hashing backend is
  pluggable (:mod:`repro.gc.cipher`).

Any non-free gate type is reduced to AND with free input/output
inversions (offsets by the global delta) via
:data:`repro.circuits.gates.AND_REDUCTION`, so OR/NAND/NOR/ANDN garble at
the same two-ciphertext cost.

:class:`Garbler` is the one garbling entry point.  It runs the
level-scheduled NumPy engine (:mod:`repro.gc.fastgarble`) over an
:class:`~repro.gc.labels.ArrayLabelStore`.  The gate-at-a-time loop in
this module is the reference oracle the tests pin that engine against —
byte-identical tables, constant labels and decode bits from the same rng
stream — and runs only for a caller that hands in a scalar
:class:`~repro.gc.labels.LabelStore`; nothing that serves a request does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import secrets
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.gates import AND_REDUCTION, Gate, GateType
from ..circuits.netlist import CONST_ONE, CONST_ZERO, Circuit
from ..errors import GarblingError
from .cipher import HashKDF, default_kdf
from .labels import ArrayLabelStore, LabelsLike, LabelStore, permute_bit
from .rng import RngLike

__all__ = ["GarbledCircuit", "Garbler"]

#: Domain tag of :meth:`GarbledCircuit.digest`, so no other SHA-256 in
#: the package hashes to a copy's digest.
_DIGEST_TAG = b"repro.gc.garbled-copy.v1"


@dataclasses.dataclass
class GarbledCircuit:
    """Everything the evaluator needs (plus the garbler's private state).

    Attributes:
        tables: the ciphertexts as one ``(n, 32)`` uint8 plane, one row
            per non-free gate in netlist order (row = tg || te, each
            half a little-endian 128-bit label) — the wire format as is.
        const_labels: labels for the two constant wires (garbler-known).
        decode_bits: permute bits of the output zero-labels; with these
            the evaluator could decode locally — in DeepSecure's flow the
            garbler keeps them and decodes after the merge step.
        tweak_base: first tweak index used (sequential garbling advances
            it every cycle so hashes never repeat across cycles).
    """

    tables: np.ndarray
    const_labels: Tuple[int, int]
    decode_bits: List[int]
    tweak_base: int = 0

    def tables_bytes(self) -> bytes:
        """Wire format of all garbled tables (32 bytes per non-free gate)."""
        return self.tables.tobytes()

    @property
    def size_bytes(self) -> int:
        """Transfer size of the tables alone."""
        return self.tables.nbytes

    def digest(self) -> bytes:
        """SHA-256 over what crosses to the evaluator: the two constant
        labels, then the tables.  Both have a length the netlist fixes,
        so the encoding is unambiguous, and a garbler who finds two
        copies with one digest has found a SHA-256 collision."""
        h = hashlib.sha256(_DIGEST_TAG)
        for label in self.const_labels:
            h.update(label.to_bytes(16, "little"))
        h.update(np.ascontiguousarray(self.tables))
        return h.digest()


class Garbler:
    """Garbles one :class:`Circuit` (or one cycle of a sequential one).

    Args:
        circuit: netlist to garble.
        kdf: garbling oracle (default: fixed-key AES).
        label_store: reuse an existing store.  The default is a fresh
            :class:`ArrayLabelStore` over the circuit's interface wires
            (:meth:`Circuit.interface_wires`), which is all a garbler
            reads after garbling — internal labels die with the walk; a
            scalar :class:`LabelStore` runs the gate-at-a-time reference
            loop instead and keeps every wire's label (same rng stream,
            identical labels, tables and decode bits).
        rng: randomness source (``secrets`` by default; tests may pass a
            seeded ``random.Random`` for reproducibility).
    """

    def __init__(
        self,
        circuit: Circuit,
        kdf: Optional[HashKDF] = None,
        label_store: Union[ArrayLabelStore, LabelStore, None] = None,
        rng: RngLike = secrets,
    ) -> None:
        self.circuit = circuit
        self.kdf = kdf or default_kdf()
        if label_store is None:
            label_store = ArrayLabelStore(circuit.interface_wires(), rng=rng)
        self.labels = label_store
        self._rng = rng

    def garble(
        self,
        state_zero_labels: Union[Sequence[int], "np.ndarray", None] = None,
        tweak_base: int = 0,
    ) -> GarbledCircuit:
        """Garble the circuit; returns the evaluator-side material.

        Args:
            state_zero_labels: zero-labels for the circuit's state wires
                (sequential carry-over), as ints or ``(n_state, 16)``
                uint8 rows.  Fresh labels are drawn when omitted.
            tweak_base: starting tweak; callers garbling multiple cycles
                must advance it (e.g. by ``2 * len(tables)`` per cycle).
        """
        if isinstance(self.labels, ArrayLabelStore):
            from .fastgarble import garble_copies

            return garble_copies(
                self.circuit,
                self.kdf,
                [self.labels],
                state_zero_labels=state_zero_labels,
                tweak_base=tweak_base,
            )[0]
        circuit = self.circuit
        labels = self.labels
        # constants + inputs
        for wire in (CONST_ZERO, CONST_ONE):
            labels.assign_fresh(wire)
        for wire in circuit.alice_inputs:
            labels.assign_fresh(wire)
        for wire in circuit.bob_inputs:
            labels.assign_fresh(wire)
        state_wires = list(circuit.state_inputs)
        if state_zero_labels is None:
            for wire in state_wires:
                labels.assign_fresh(wire)
        else:
            if len(state_zero_labels) != len(state_wires):
                raise GarblingError("wrong number of state labels")
            for wire, label in zip(state_wires, state_zero_labels):
                labels.set_zero(wire, label)

        tables = np.empty((circuit.counts().non_xor, 32), dtype=np.uint8)
        row = 0
        tweak = tweak_base
        delta = labels.delta
        for gate in circuit.gates:
            op = gate.op
            if op is GateType.XOR:
                labels.set_zero(
                    gate.out, labels.zero(gate.a) ^ labels.zero(gate.b)
                )
            elif op is GateType.XNOR:
                labels.set_zero(
                    gate.out,
                    labels.zero(gate.a) ^ labels.zero(gate.b) ^ delta,
                )
            elif op is GateType.NOT:
                labels.set_zero(gate.out, labels.zero(gate.a) ^ delta)
            elif op is GateType.BUF:
                labels.set_zero(gate.out, labels.zero(gate.a))
            else:
                (tg, te), zero_out = self._garble_and_reduced(gate, tweak)
                labels.set_zero(gate.out, zero_out)
                tables[row] = np.frombuffer(
                    tg.to_bytes(16, "little") + te.to_bytes(16, "little"), np.uint8
                )
                row += 1
                tweak += 2
        const_labels = (
            labels.select(CONST_ZERO, 0),
            labels.select(CONST_ONE, 1),
        )
        decode = [permute_bit(labels.zero(w)) for w in circuit.outputs]
        return GarbledCircuit(
            tables=tables,
            const_labels=const_labels,
            decode_bits=decode,
            tweak_base=tweak_base,
        )

    # -- half-gates core ---------------------------------------------------

    def _garble_and_reduced(
        self, gate: Gate, tweak: int
    ) -> Tuple[Tuple[int, int], int]:
        """Garble a non-free gate via its AND-with-inversions reduction."""
        inv = AND_REDUCTION.get(gate.op)
        if inv is None:
            raise GarblingError(f"cannot garble gate type {gate.op}")
        delta = self.labels.delta
        # free input inversions: offset the zero-labels by delta
        label_a = self.labels.zero(gate.a) ^ (delta if inv.ia else 0)
        label_b = self.labels.zero(gate.b) ^ (delta if inv.ib else 0)
        table, zero_out = self._garble_and(label_a, label_b, tweak)
        # free output inversion
        return table, zero_out ^ (delta if inv.out else 0)

    def _garble_and(
        self, zero_a: int, zero_b: int, tweak: int
    ) -> Tuple[Tuple[int, int], int]:
        """Half-gates AND (Zahur-Rosulek-Evans, two ciphertexts): the
        table's ``(tg, te)`` and the output zero-label."""
        kdf = self.kdf
        delta = self.labels.delta
        pa = permute_bit(zero_a)
        pb = permute_bit(zero_b)
        h_a0 = kdf.hash(zero_a, tweak)
        h_a1 = kdf.hash(zero_a ^ delta, tweak)
        h_b0 = kdf.hash(zero_b, tweak + 1)
        h_b1 = kdf.hash(zero_b ^ delta, tweak + 1)
        # garbler half-gate
        tg = h_a0 ^ h_a1 ^ (delta if pb else 0)
        wg = h_a0 ^ (tg if pa else 0)
        # evaluator half-gate
        te = h_b0 ^ h_b1 ^ zero_a
        we = h_b0 ^ ((te ^ zero_a) if pb else 0)
        return (tg, te), wg ^ we

    # -- conveniences -------------------------------------------------------

    def input_labels_for(
        self, wires: Sequence[int], bits: Sequence[int]
    ) -> LabelsLike:
        """Labels encoding ``bits`` on ``wires`` (garbler's own inputs): off
        the engine's store, ``(m, 16)`` rows in one masked select."""
        labels = self.labels
        if not isinstance(labels, ArrayLabelStore):
            return [labels.select(w, b) for w, b in zip(wires, bits)]
        mask = -(np.asarray(bits, dtype=np.uint8) & 1)
        return labels.zero_rows(wires) ^ labels.delta_row & mask[:, None]

    def label_pair_rows(self, wires: Sequence[int]) -> "np.ndarray":
        """Each wire's (zero-label, one-label) as ``(m, 2, 16)`` uint8
        rows — the OT sender's messages, read off the engine's store."""
        labels = self.labels
        if not isinstance(labels, ArrayLabelStore):
            raise GarblingError("OT messages are read off the engine's label store")
        zero = labels.zero_rows(wires)
        return np.stack((zero, zero ^ labels.delta_row), axis=1)

    def decode_outputs(self, output_labels: Sequence[int]) -> List[int]:
        """Merge step: decode the evaluator's output labels (Sec. 2.2.2 iv).

        Raises:
            GarblingError: if any label is not one of the wire's two
                labels.
        """
        wires = self.circuit.outputs
        if len(output_labels) != len(wires):
            raise GarblingError("wrong number of output labels")
        return self.labels.decode_bits(wires, output_labels)

    def state_zero_labels_out(self, d_wires: Sequence[int]) -> List[int]:
        """Zero-labels of register next-state wires (for the next cycle)."""
        return [self.labels.zero(w) for w in d_wires]
