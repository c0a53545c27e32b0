"""Every message a session puts on a link, declared once: its wire tag
(plain strings, some shared), its sender, its phase and its payload
length as a function of the public :class:`Shape`.  Every send and
receive names an entry, :meth:`Message.recv` is the one size check of a
received frame, and the byte counts the package reports, a round's
``comm`` included (:func:`predict`), are reads of this table.

Phases: ``setup`` is an IKNP state's base-OT batch (roles swapped), framed
only between two processes; ``offline`` depends on no client input and
may cross before a request (a pooled copy's does); ``online`` only a
request can send; ``control`` is the transport's JSON records.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from ..errors import ChannelIntegrityError
from .labels import LabelsLike, label_rows

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..circuits.netlist import Circuit
    from .channel import Channel

__all__ = ["MESSAGES", "Message", "OFFLINE_COPY", "Shape", "TAGS", "predict", "round_messages"]

#: Base OTs per IKNP set-up, and ``u`` columns per extension.
KAPPA = 128
#: Bytes of a base-OT message (one XOF seed) and of an opened copy's seed.
SEED_BYTES = 16
#: Bytes of the extension counter at the head of the ``u`` frame.
COUNTER_BYTES = 8
#: Bytes of one wire label.
LABEL_BYTES = 16
#: What a link charges a frame beyond its payload: the length prefix.
LENGTH_PREFIX = 4

ALICE, BOB, EITHER = "alice", "bob", "either"
SETUP, OFFLINE, ONLINE, CONTROL = "setup", "offline", "online", "control"


@dataclasses.dataclass(frozen=True)
class Shape:
    """The public numbers payload lengths are functions of: the netlist's
    counts, the OT group's element width, a base-OT batch's size and a
    request's garbled copies (cut-and-choose's ``k``)."""

    non_xor: int = 0
    n_alice: int = 0
    n_bob: int = 0
    n_outputs: int = 0
    n_state: int = 0
    width: int = 0
    base_ots: int = KAPPA
    msg_len: int = SEED_BYTES
    copies: int = 1

    @classmethod
    def of(cls, circuit: "Circuit", group: Any = None, copies: int = 1) -> "Shape":
        """The shape of ``circuit``'s rounds, with ``group``'s element
        width (an :class:`repro.gc.ot.OTGroup`) where one is given."""
        return cls(circuit.counts().non_xor, circuit.n_alice, circuit.n_bob,
                   len(circuit.outputs), circuit.n_state,
                   group.element_bytes if group else 0, copies=copies)


#: The shape of a message that reads no field of it (the constant labels).
NO_SHAPE = Shape()


@dataclasses.dataclass(frozen=True)
class Message:
    """One entry: its name in errors, wire tag, sender (``"alice"``, the
    garbler, ``"bob"`` or ``"either"``), phase, payload bytes of a
    :class:`Shape` (``None``: variable) and whether it is framed."""

    name: str
    tag: str
    sender: str
    phase: str
    size: Optional[Callable[[Shape], int]]
    framed: bool = True

    def wire_bytes(self, shape: Shape) -> int:
        """What its link charges (or the request is billed) for it."""
        assert self.size is not None, f"{self.name} has no fixed size"
        return self.size(shape) + (LENGTH_PREFIX if self.framed else 0)

    def send(self, end: "Channel", payload: bytes) -> None:
        """Send ``payload`` as this message's frame."""
        end.send_bytes(payload, self.tag)

    def send_labels(self, end: "Channel", labels: LabelsLike) -> None:
        """Send a label vector: its count, then 16 bytes a label."""
        self.send(end, struct.pack("<I", len(labels)) + label_rows(labels).tobytes())

    def recv(self, end: "Channel", shape: Shape = NO_SHAPE) -> bytes:
        """Receive this message's frame and check its length against the
        receiver's ``shape``: the one size check of every frame."""
        payload = end.recv_bytes(self.tag)
        if self.size is not None and len(payload) != self.size(shape):
            raise ChannelIntegrityError(
                f"{self.name} payload carries {len(payload)} bytes; its shape "
                f"fixes {self.size(shape)}"
            )
        return payload

    def recv_rows(self, end: "Channel", shape: Shape = NO_SHAPE) -> np.ndarray:
        """Receive a label vector as a read-only ``(n, 16)`` uint8 view."""
        data = self.recv(end, shape)
        (count,) = struct.unpack_from("<I", data)
        if len(data) != 4 + LABEL_BYTES * count:
            raise ChannelIntegrityError(
                f"label payload size mismatch: declares {count} entries, "
                f"carries {len(data) - 4} bytes"
            )
        return np.frombuffer(data, dtype=np.uint8, offset=4).reshape(count, LABEL_BYTES)


def _labels(n: int) -> int:
    return 4 + LABEL_BYTES * n


def _packed(bits: int) -> int:
    return (bits + 7) // 8


# name, tag, sender, phase, payload bytes of a shape
OT_SETUP_C = Message("base-OT c", "ot_setup", BOB, SETUP, lambda s: s.width)
OT_SETUP_KEYS = Message("base-OT keys", "ot_setup", ALICE, SETUP, lambda s: s.base_ots * s.width)
OT_SETUP_REPLY = Message("base-OT reply", "ot_setup", BOB, SETUP,
                         lambda s: s.width + 2 * s.base_ots * s.msg_len)
OT_U = Message("OT u", "ot", BOB, OFFLINE, lambda s: COUNTER_BYTES + KAPPA * _packed(s.n_bob))
OT_E = Message("OT e", "ot", BOB, OFFLINE, lambda s: _packed(s.n_bob))
OT_Y = Message("OT y", "ot", ALICE, OFFLINE, lambda s: 2 * LABEL_BYTES * s.n_bob)
TABLES = Message("tables", "tables", ALICE, OFFLINE, lambda s: 32 * s.non_xor)
CONST_LABELS = Message("constant labels", "const_labels", ALICE, OFFLINE, lambda s: _labels(2))
ALICE_LABELS = Message("Alice's labels", "alice_labels", ALICE, ONLINE,
                       lambda s: _labels(s.n_alice))
STATE_LABELS = Message("state labels", "state_labels", ALICE, ONLINE,
                       lambda s: _labels(s.n_state))
OUTPUT_LABELS = Message("output labels", "output_labels", BOB, ONLINE,
                        lambda s: _labels(s.n_outputs))
#: a 32-byte digest per copy, and the seed of every copy but the one that runs
COMMITMENTS = Message("commitments", "commitments", ALICE, ONLINE,
                      lambda s: 32 * s.copies, framed=False)
OPENINGS = Message("openings", "openings", ALICE, ONLINE,
                   lambda s: SEED_BYTES * (s.copies - 1), framed=False)
CTL = Message("control record", "ctl", EITHER, CONTROL, None)

#: The base-OT batch and an OT extension's three frames, in flight order.
BASE_OT, OT = (OT_SETUP_C, OT_SETUP_KEYS, OT_SETUP_REPLY), (OT_U, OT_E, OT_Y)
#: What a pooled copy puts on ``pregarble_many``'s link as it is made, in order.
OFFLINE_COPY = OT + (TABLES, CONST_LABELS)
MESSAGES = BASE_OT + OFFLINE_COPY + (ALICE_LABELS, STATE_LABELS, OUTPUT_LABELS,
                                     COMMITMENTS, OPENINGS, CTL)
#: Every tag a frame may carry.
TAGS = frozenset(message.tag for message in MESSAGES if message.framed)


def round_messages(shape: Shape, *, held: bool = False, cycle: int = 0,
                   setup: bool = False, merge: bool = True) -> List[Message]:
    """One round's frames in flight order.  Alice's flights come first:
    the tables and constant labels unless a pooled copy ``held`` them,
    her input labels, and at cycle 0 of a core with registers the
    initial state's.  Then the OT for Bob's labels unless the copy
    ``held`` them (none for a circuit without Bob inputs), preceded by
    the base-OT batch where the ``setup`` crosses this link; last, if
    the round merges (``merge``), the output labels."""
    frames: List[Message] = [] if held else [TABLES, CONST_LABELS]
    frames.append(ALICE_LABELS)
    if cycle == 0 and shape.n_state:
        frames.append(STATE_LABELS)
    if not held and shape.n_bob:
        frames += BASE_OT + OT if setup else OT
    if merge:
        frames.append(OUTPUT_LABELS)
    return frames


def predict(shape: Shape, *, pooled: bool = False, cycles: int = 1,
            final_only: bool = False) -> Dict[str, int]:
    """The per-tag ``comm`` of one request: a cold round, a ``pooled``
    copy's round, a sequential run of ``cycles`` (merging the last cycle
    alone if ``final_only``), or, for a shape of more than one copy, a
    cut-and-choose round with its digests and seeds beside it."""
    comm: Dict[str, int] = {}
    for cycle in range(cycles):
        for message in round_messages(
            shape, held=pooled, cycle=cycle, merge=not final_only or cycle == cycles - 1,
        ):
            comm[message.tag] = comm.get(message.tag, 0) + message.wire_bytes(shape)
    if shape.copies > 1:
        for message in (COMMITMENTS, OPENINGS):
            comm[message.tag] = message.wire_bytes(shape)
    return comm
