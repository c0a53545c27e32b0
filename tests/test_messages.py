"""The message table against the wire.

Every flow's ``comm`` is the table's prediction, tag by tag, on the
demo net: a cold request, a pool hit, a folded sequential run, a
cut-and-choose request and a request over the socket transport.  And no
module but the table names a tag.
"""

import ast
import math
import pathlib
import random

import pytest

from repro.circuits import FixedPointFormat
from repro.compile import folded_mac_cell
from repro.engine.backends import CutAndChooseBackend
from repro.gc import SequentialSession, TwoPartySession, messages
from repro.gc.messages import OFFLINE_COPY, Shape, predict
from repro.gc.ot import TEST_GROUP_512
from repro.transport import socketpair_channel_factory

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def demo():
    from repro.cli import _demo_service

    service, _ = _demo_service(pool_refill="none")
    circuit, bits = service.compiled.circuit, service.compiled.server_bits()
    service.close()
    rng = random.Random(5)
    return circuit, bits, [rng.randrange(2) for _ in circuit.alice_inputs], rng


def _session(circuit, rng, **options):
    return TwoPartySession(circuit, ot_group=TEST_GROUP_512, rng=rng, **options)


def _cold(circuit, bits, a, rng):
    return _session(circuit, rng).run(a, bits), {}


def _pool_hit(circuit, bits, a, rng):
    session = _session(circuit, rng)
    (copy,) = session.pregarble_many(1, bits)
    # the copy's offline frames are the table's too
    assert copy[1].offline_bytes == sum(
        m.wire_bytes(Shape.of(circuit, TEST_GROUP_512)) for m in OFFLINE_COPY
    ) == 392_312
    return session.run(a, bits, pregarbled=copy), {"pooled": True}


def _folded(circuit, bits, a, rng):
    """``run_folded_dense``'s run of a 16-input unit: one MAC cell,
    its last cycle merged alone."""
    fmt = FixedPointFormat(3, 12)
    cell = folded_mac_cell(fmt, fan_in=16)
    core = cell.core
    cycles = math.ceil(16 / (core.n_alice // fmt.width))
    draw = [[[rng.randrange(2) for _ in range(n)] for _ in range(cycles)]
            for n in (core.n_alice, core.n_bob)]
    result = SequentialSession(cell, ot_group=TEST_GROUP_512, rng=rng).run(
        *draw, cycles=cycles, final_only=True
    )
    return result, {"circuit": core, "cycles": cycles, "final_only": True}


def _cut_and_choose(circuit, bits, a, rng):
    backend = CutAndChooseBackend(ot_group=TEST_GROUP_512, rng=rng, copies=3)
    return backend.run(circuit, a, bits), {"copies": 3}


def _socket(circuit, bits, a, rng):
    session = _session(circuit, rng, channel_factory=socketpair_channel_factory())
    return session.run(a, bits), {}


FLOWS = {
    "cold": (_cold, 393_800),
    "pool_hit": (_pool_hit, 1_488),
    "folded": (_folded, 257_248),
    "cut_and_choose": (_cut_and_choose, 393_928),
    "socket": (_socket, 393_800),
}


@pytest.mark.parametrize("flow", list(FLOWS))
def test_comm_is_the_tables_prediction(demo, flow):
    circuit, bits, a, rng = demo
    run, total = FLOWS[flow]
    result, how = run(circuit, bits, a, rng)
    shape = Shape.of(how.pop("circuit", circuit), TEST_GROUP_512, how.pop("copies", 1))
    assert result.comm == predict(shape, **how)
    assert sum(result.comm.values()) == total


def test_a_cold_request_frame_by_frame(demo):
    shape = Shape.of(demo[0], TEST_GROUP_512)
    # 32 bytes a table and the length prefix; the rest by hand
    assert messages.TABLES.wire_bytes(shape) == 32 * shape.non_xor + 4 == 358_436
    assert [m.wire_bytes(shape) for m in messages.round_messages(shape)] == [
        358_436, 40, 1_448, 11_276, 92, 22_468, 40,
    ]


def test_the_wire_carries_the_same_tags():
    assert messages.TAGS == {
        "ot_setup", "ot", "tables", "const_labels", "alice_labels",
        "state_labels", "output_labels", "ctl",
    }


def _tag_literals(path):
    """``(line, call)`` of each call in ``path`` that names a frame tag
    as a string literal: a ``tag`` / ``expected_tag`` keyword, or the
    tag argument of ``send_bytes`` / ``recv_bytes``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        named = [kw.value for kw in node.keywords if kw.arg in ("tag", "expected_tag")]
        method = getattr(node.func, "attr", None)
        position = {"send_bytes": 1, "recv_bytes": 0}.get(method)
        if position is not None and len(node.args) > position:
            named.append(node.args[position])
        if any(isinstance(v, ast.Constant) and isinstance(v.value, str) for v in named):
            found.append((node.lineno, ast.unparse(node.func)))
    return found


def test_no_tag_literal_outside_the_table():
    offenders = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "gc" / "messages.py" and (found := _tag_literals(path))
    }
    assert offenders == {}
