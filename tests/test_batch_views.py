"""Shape invariance of a batched round: what each party receives.

A party's view of a round starts with the frames the other party sends
it.  Over one ``TwoPartySession.run_many`` batch, on the in-memory and
the socket transport, cold and from the pre-garbled pool: fix one
party's inputs and vary the other's, and the ``(tag, length)`` sequence
of frames each party receives stays the same, in every lane.  A
data-dependent frame, an early exit or a gate skipped for a zero bit
would change it.
"""

import random

import pytest

from repro.circuits import CircuitBuilder, simulate
from repro.gc import TwoPartySession
from repro.gc.channel import make_channel_pair
from repro.gc.ot import TEST_GROUP_512
from repro.gc.ot_extension import IKNPState
from repro.gc.protocol import OT_EXTENSION_THRESHOLD
from repro.transport import socketpair_channel_factory

N_ALICE = 4
#: wide enough that the OT takes the extension
N_BOB = OT_EXTENSION_THRESHOLD + 2
LANES = 3

TRANSPORTS = {"memory": make_channel_pair, "socket": socketpair_channel_factory()}


def _circuit():
    """Both parties' inputs feed non-free and free gates; the outputs
    mix both."""
    bld = CircuitBuilder()
    a = bld.add_alice_inputs(N_ALICE)
    b = bld.add_bob_inputs(N_BOB)
    acc = bld.emit_and(a[0], b[0])
    for i in range(1, N_BOB):
        acc = bld.emit_xor(acc, bld.emit_and(a[i % N_ALICE], b[i]))
    bld.mark_output(acc)
    bld.mark_output(bld.emit_or(a[1], b[1]))
    bld.mark_output(bld.emit_and(a[2], a[3]))
    return bld.build()


def _bits(rng, n):
    return [[rng.randrange(2) for _ in range(n)] for _ in range(LANES)]


def _received(circuit, transport, pooled, alices, bobs):
    """Per lane, the ``(tag, length)`` frames each party received, as
    ``(bob's, alice's)``, from one ``run_many`` batch."""
    links = []

    def factory():
        alice, bob, stats = TRANSPORTS[transport]()
        links.append(stats)
        return alice, bob, stats

    rng = random.Random(1)
    session = TwoPartySession(
        circuit, ot_group=TEST_GROUP_512, rng=rng, channel_factory=factory,
        ot_state=IKNPState(TEST_GROUP_512, rng) if pooled else None,
    )
    slots = session.pregarble_many(LANES) if pooled else None
    results = session.run_many(alices, bobs, pregarbled=slots)
    assert [r.outputs for r in results] == [
        simulate(circuit, a, b) for a, b in zip(alices, bobs)
    ]
    assert len(links) == LANES
    return [
        tuple(
            [(tag, size) for way, tag, size in stats.log if way == direction]
            for direction in ("a2b", "b2a")
        )
        for stats in links
    ]


@pytest.mark.parametrize("pooled", [False, True], ids=["cold", "pool"])
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_received_frames_do_not_depend_on_the_other_partys_inputs(
    transport, pooled
):
    circuit = _circuit()
    draw = random.Random(7)
    alices, bobs = _bits(draw, N_ALICE), _bits(draw, N_BOB)
    reference = _received(circuit, transport, pooled, alices, bobs)
    # lanes with different inputs already see the same frames
    assert reference == [reference[0]] * LANES
    bob_view, alice_view = reference[0]
    assert bob_view and alice_view
    # Alice's inputs fixed, Bob's varied; then the reverse
    for varied in (
        (alices, _bits(draw, N_BOB)),
        (_bits(draw, N_ALICE), bobs),
    ):
        assert _received(circuit, transport, pooled, *varied) == reference
