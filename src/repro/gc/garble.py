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
import secrets
from collections.abc import Sequence as SequenceABC
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.gates import AND_REDUCTION, Gate, GateType
from ..circuits.netlist import CONST_ONE, CONST_ZERO, Circuit
from ..errors import GarblingError
from .cipher import HashKDF, default_kdf
from .labels import ArrayLabelStore, LabelStore, permute_bit
from .rng import RngLike

__all__ = ["GarbledGate", "GarbledCircuit", "Garbler", "LazyTables"]


@dataclasses.dataclass(frozen=True)
class GarbledGate:
    """The two half-gate ciphertexts of one non-free gate."""

    tg: int
    te: int

    def to_bytes(self) -> bytes:
        """Serialize as 32 bytes (2 x 128-bit rows)."""
        return self.tg.to_bytes(16, "little") + self.te.to_bytes(16, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "GarbledGate":
        """Inverse of :meth:`to_bytes`."""
        if len(data) != 32:
            raise GarblingError("garbled gate must be 32 bytes")
        return cls(
            int.from_bytes(data[:16], "little"),
            int.from_bytes(data[16:], "little"),
        )


class LazyTables(SequenceABC):
    """List-of-:class:`GarbledGate` view over an ``(n, 32)`` uint8 plane.

    The garbling engine produces its ciphertexts as one contiguous
    byte plane; this adapter keeps the :class:`GarbledCircuit.tables`
    contract (len / iteration / indexing yield ``GarbledGate``) without
    eagerly converting every row back to Python ints — conversion only
    happens for rows a scalar consumer actually touches.
    """

    __slots__ = ("plane",)

    def __init__(self, plane: "np.ndarray") -> None:
        if plane.ndim != 2 or plane.shape[1] != 32:
            raise GarblingError("table plane must be (n, 32) bytes")
        self.plane = plane

    def __len__(self) -> int:
        return len(self.plane)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union["GarbledGate", List["GarbledGate"]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row = self.plane[index]
        return GarbledGate(
            int.from_bytes(row[:16].tobytes(), "little"),
            int.from_bytes(row[16:].tobytes(), "little"),
        )


@dataclasses.dataclass
class GarbledCircuit:
    """Everything the evaluator needs (plus the garbler's private state).

    Attributes:
        tables: ciphertext pairs, one per non-free gate, in netlist order.
        const_labels: labels for the two constant wires (garbler-known).
        decode_bits: permute bits of the output zero-labels; with these
            the evaluator could decode locally — in DeepSecure's flow the
            garbler keeps them and decodes after the merge step.
        tweak_base: first tweak index used (sequential garbling advances
            it every cycle so hashes never repeat across cycles).
        tables_plane: optional ``(n, 32)`` uint8 view of the same tables
            (row = tg || te, little-endian), populated by the garbling
            engine so the fast evaluator never re-parses ciphertexts.
    """

    tables: Sequence[GarbledGate]
    const_labels: Tuple[int, int]
    decode_bits: List[int]
    tweak_base: int = 0
    tables_plane: Optional[object] = None

    def tables_bytes(self) -> bytes:
        """Wire format of all garbled tables (32 bytes per non-free gate)."""
        if self.tables_plane is not None:
            return self.tables_plane.tobytes()
        return b"".join(t.to_bytes() for t in self.tables)

    @property
    def size_bytes(self) -> int:
        """Transfer size of the tables alone."""
        return 32 * len(self.tables)


class Garbler:
    """Garbles one :class:`Circuit` (or one cycle of a sequential one).

    Args:
        circuit: netlist to garble.
        kdf: garbling oracle (default: fixed-key AES).
        label_store: reuse an existing store — required across cycles of
            a sequential circuit so register labels carry over.  The
            default is a fresh :class:`ArrayLabelStore`; a scalar
            :class:`LabelStore` runs the gate-at-a-time reference loop
            instead (same rng stream, identical labels, tables and
            decode bits).
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
            label_store = ArrayLabelStore(circuit.n_wires, rng=rng)
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

        tables: List[GarbledGate] = []
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
                table, zero_out = self._garble_and_reduced(gate, tweak)
                labels.set_zero(gate.out, zero_out)
                tables.append(table)
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

    def _garble_and_reduced(self, gate: Gate, tweak: int) -> Tuple[GarbledGate, int]:
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
    ) -> Tuple[GarbledGate, int]:
        """Half-gates AND (Zahur-Rosulek-Evans, two ciphertexts)."""
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
        return GarbledGate(tg=tg, te=te), wg ^ we

    # -- conveniences -------------------------------------------------------

    def input_labels_for(
        self, wires: Sequence[int], bits: Sequence[int]
    ) -> List[int]:
        """Labels encoding ``bits`` on ``wires`` (garbler's own inputs)."""
        return [self.labels.select(w, b) for w, b in zip(wires, bits)]

    def label_pair_rows(self, wires: Sequence[int]) -> "np.ndarray":
        """Each wire's (zero-label, one-label) as ``(m, 2, 16)`` uint8
        rows — the OT sender's messages, read off the engine's plane."""
        labels = self.labels
        if not isinstance(labels, ArrayLabelStore):
            raise GarblingError("OT messages are read off the engine's label plane")
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
