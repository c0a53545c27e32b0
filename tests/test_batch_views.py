"""Shape invariance of a round: what each party receives.

A party's view of a round starts with the frames the other party sends
it.  Over one ``TwoPartySession.run_many`` batch (cold and from the
pre-garbled pool), a ``SequentialSession`` run of the folded MAC cell
over two cycles, a cut-and-choose request and an outsourced request, on
the in-memory and the socket transport, and over a two-process peer
session (one party per thread, one socket between them): fix one
party's inputs and vary the other's, and the ``(tag, length)`` sequence
of frames each party receives stays the same, in every lane.  A
data-dependent frame, an early exit or a gate skipped for a zero bit
would change it.
"""

import random
import socket
import threading

import pytest

from repro.circuits import CircuitBuilder, FixedPointFormat, simulate
from repro.compile.folded import folded_mac_cell
from repro.engine.backends import CutAndChooseBackend
from repro.gc import OutsourcedSession, SequentialSession, TwoPartySession
from repro.gc.channel import make_channel_pair
from repro.gc.ot import TEST_GROUP_512
from repro.gc.ot_extension import IKNPState
from repro.transport import peer, socketpair_channel_factory

N_ALICE = 4
#: Bob's input width; not a multiple of 8, so the packed OT frames end
#: in a partial byte
N_BOB = 130
LANES = 3
#: the folded MAC cell: four products, two per clock
MAC_CELL = folded_mac_cell(FixedPointFormat(2, 4), fan_in=4, fold=2)
CYCLES = 2

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


CIRCUIT = _circuit()


def _batch(pooled):
    """One ``run_many`` batch of every lane."""

    def drive(factory, rng, alices, bobs):
        session = TwoPartySession(
            CIRCUIT, ot_group=TEST_GROUP_512, rng=rng, channel_factory=factory,
            ot_state=IKNPState(TEST_GROUP_512, rng) if pooled else None,
        )
        # a copy serves one Bob input: one copy per lane, for its bits
        slots = [session.pregarble_many(1, b)[0] for b in bobs] if pooled else None
        results = session.run_many(alices, bobs, pregarbled=slots)
        assert [r.outputs for r in results] == [
            simulate(CIRCUIT, a, b) for a, b in zip(alices, bobs)
        ]

    return (N_ALICE, N_BOB), drive


def _sequential(factory, rng, alices, bobs):
    """One clocked run of the MAC cell per lane, a cycle's words after
    the other's."""
    session = SequentialSession(
        MAC_CELL, ot_group=TEST_GROUP_512, rng=rng, channel_factory=factory
    )
    core = MAC_CELL.core
    for alice, bob in zip(alices, bobs):
        a = [alice[i * core.n_alice:(i + 1) * core.n_alice] for i in range(CYCLES)]
        b = [bob[i * core.n_bob:(i + 1) * core.n_bob] for i in range(CYCLES)]
        result = session.run(a, b, cycles=CYCLES)
        assert result.outputs_per_cycle == MAC_CELL.run(a, b, cycles=CYCLES)


def _cut_and_choose(factory, rng, alices, bobs):
    """One cut-and-choose request per lane: its surviving copy's round."""
    backend = CutAndChooseBackend(
        ot_group=TEST_GROUP_512, rng=rng, copies=3, channel_factory=factory
    )
    for alice, bob in zip(alices, bobs):
        assert backend.run(CIRCUIT, alice, bob).outputs == simulate(CIRCUIT, alice, bob)


def _outsourced(factory, rng, alices, bobs):
    """One outsourced request per lane: the client's bits (the
    ``alices``) split into two shares, the proxy garbling on one and the
    main server evaluating on the other and its own ``bobs``."""
    session = OutsourcedSession(
        CIRCUIT, ot_group=TEST_GROUP_512, rng=rng, channel_factory=factory
    )
    for alice, bob in zip(alices, bobs):
        assert session.run(alice, bob).outputs == simulate(CIRCUIT, alice, bob)


FLOWS = {
    "cold": _batch(pooled=False),
    "pool": _batch(pooled=True),
    "sequential": (
        (CYCLES * MAC_CELL.core.n_alice, CYCLES * MAC_CELL.core.n_bob), _sequential
    ),
    "cut_and_choose": ((N_ALICE, N_BOB), _cut_and_choose),
    "outsourced": ((N_ALICE, N_BOB), _outsourced),
}


def _bits(rng, n):
    return [[rng.randrange(2) for _ in range(n)] for _ in range(LANES)]


def _received(flow, transport, alices, bobs):
    """Per lane, the ``(tag, length)`` frames each party received, as
    ``(bob's, alice's)``, from one run of ``flow``."""
    links = []

    def factory():
        alice, bob, stats = TRANSPORTS[transport]()
        links.append(stats)
        return alice, bob, stats

    FLOWS[flow][1](factory, random.Random(1), alices, bobs)
    logs = [stats.log for stats in links]
    if flow == "pool":
        # each lane's copy came on its own pregarble_many link: its OT's
        # u, e and y, its tables and constants; a lane's view starts there
        offline, logs = logs[:LANES], logs[LANES:]
        assert all(len(log) == 5 for log in offline)
        # a pool hit's round: Alice's labels out, the output labels back
        assert all(
            [(way, tag) for way, tag, _ in log]
            == [("a2b", "alice_labels"), ("b2a", "output_labels")]
            for log in logs
        )
        logs = [early + log for early, log in zip(offline, logs)]
    assert len(logs) == LANES
    return [
        tuple(
            [(tag, size) for way, tag, size in log if way == direction]
            for direction in ("a2b", "b2a")
        )
        for log in logs
    ]


def _peer_session(alice, bob, seeds):
    """One two-process peer session: each party in its own thread with
    its own rng and its own bits, one socketpair between them."""
    ends = socket.socketpair()
    results, errors = {}, []

    def party(role, sock, bits, seed):
        try:
            results[role] = peer.run_two_party_peer(
                sock, role, CIRCUIT, bits, ot_group=TEST_GROUP_512,
                rng=random.Random(seed), request_timeout_s=30,
            )
        except BaseException as exc:  # surfaced in the test's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=party, args=(role, end, bits, seed))
        for role, end, bits, seed in zip(peer.PEER_ROLES, ends, (alice, bob), seeds)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for end in ends:
        end.close()
    if errors:
        raise errors[0]
    assert results["garbler"].outputs == simulate(CIRCUIT, alice, bob)


def _peer_received(links, alices, bobs):
    """Per lane, the frames each party received in a peer session;
    ``links`` maps a role to the stats of the link its last session
    opened, where its end accounts what it got."""
    views = []
    for lane, (alice, bob) in enumerate(zip(alices, bobs)):
        _peer_session(alice, bob, (2 * lane, 2 * lane + 1))
        views.append(tuple(
            [(tag, size) for way, tag, size in links[role].log if way == direction]
            for role, direction in (("evaluator", "a2b"), ("garbler", "b2a"))
        ))
    return views


def _assert_views_do_not_depend_on_the_other_partys_inputs(received, n_alice, n_bob):
    draw = random.Random(7)
    alices, bobs = _bits(draw, n_alice), _bits(draw, n_bob)
    reference = received(alices, bobs)
    # lanes with different inputs already see the same frames
    assert reference == [reference[0]] * LANES
    bob_view, alice_view = reference[0]
    assert bob_view and alice_view
    # Alice's inputs fixed, Bob's varied; then the reverse
    for varied in (
        (alices, _bits(draw, n_bob)),
        (_bits(draw, n_alice), bobs),
    ):
        assert received(*varied) == reference


@pytest.mark.parametrize("flow", sorted(FLOWS))
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_received_frames_do_not_depend_on_the_other_partys_inputs(transport, flow):
    (n_alice, n_bob), _ = FLOWS[flow]
    _assert_views_do_not_depend_on_the_other_partys_inputs(
        lambda alices, bobs: _received(flow, transport, alices, bobs), n_alice, n_bob
    )


def test_two_process_peer_frames_do_not_depend_on_the_other_partys_inputs(monkeypatch):
    links = {}
    opened = peer.peer_channel_factory

    def recording(sock, role, *args):
        factory = opened(sock, role, *args)

        def open_link():
            link = factory()
            links[role] = link[2]
            return link

        return open_link

    monkeypatch.setattr(peer, "peer_channel_factory", recording)
    _assert_views_do_not_depend_on_the_other_partys_inputs(
        lambda alices, bobs: _peer_received(links, alices, bobs), N_ALICE, N_BOB
    )
