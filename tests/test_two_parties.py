"""What only two independent parties can show.

Every test here runs the garbler and the evaluator as two parties that
share nothing but the public netlist: each on its own thread and its own
end of a socketpair, each with its own rng, each handed its own input
only — the deployment of :mod:`repro.transport.peer`.  Covered: what the
evaluator's objects hold (no Δ, no ``s``, no inactive label, no decode
bit, no pad it did not choose), what the garbler's hold (no server bit
vector, no random choice, no seed it did not choose), frame-for-frame
parity with the in-memory session, one base OT per connection — a
failed session included — fault closure on a one-ended link, and the
``peer`` control records of a ``cli infer --connect`` run.
"""

from __future__ import annotations

import gc
import random
import socket
import threading
import types

import numpy as np
import pytest

from repro.circuits import CircuitBuilder, FixedPointFormat, simulate
from repro.circuits.netlist import CONST_ONE, CONST_ZERO
from repro.compile import folded_mac_cell
from repro.errors import ProtocolError, ReproError
from repro.gc import Garbler, SequentialSession, TwoPartySession
from repro.gc.channel import make_channel_pair
from repro.gc.ot import TEST_GROUP_512, OTGroup
from repro.gc import ot_extension
from repro.gc.ot_extension import KAPPA, IKNPState
from repro.resilience import FaultPlan, FaultSpec, FaultyChannel, is_transient
from repro.transport.peer import peer_channel_factory

FMT = FixedPointFormat(2, 6)
WIDTH = (TEST_GROUP_512.prime.bit_length() + 7) // 8
SETUP_FRAMES = [
    ("b2a", "ot_setup", WIDTH + 4),
    ("a2b", "ot_setup", KAPPA * WIDTH + 4),
    ("b2a", "ot_setup", WIDTH + KAPPA * 32 + 4),
]


def mixing_circuit(n_bob, seed=0, n_alice=8, n_gates=200):
    """A random netlist over ``n_alice`` client and ``n_bob`` server bits;
    without an OT state, ``n_bob >= 128`` takes the OT extension, fewer
    the direct base OT."""
    rng = random.Random(seed)
    bld = CircuitBuilder()
    wires = list(bld.add_alice_inputs(n_alice)) + list(bld.add_bob_inputs(n_bob))
    for _ in range(n_gates):
        op = rng.choice(["xor", "and", "or", "nand", "xnor"])
        x, y = rng.choice(wires), rng.choice(wires)
        if op == "xnor":
            wires.append(bld.emit_not(bld.emit_xor(x, y)))
        else:
            wires.append(getattr(bld, f"emit_{op}")(x, y))
    for wire in wires[-6:]:
        bld.mark_output(wire)
    return bld.build()


def _bits(n, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(n)]


class Party:
    """One side of a connection: its socket, its rng, its OT state, and
    the ends and stats of every link its sessions opened."""

    def __init__(self, sock, role, seed, plan=None, io_timeout_s=30.0):
        self.role, self.rng = role, random.Random(seed)
        self.state = IKNPState(group=TEST_GROUP_512, rng=self.rng)
        self.ends, self.logs = [], []
        healthy = peer_channel_factory(sock, role, io_timeout_s=io_timeout_s)

        def factory():
            alice_end, bob_end, stats = healthy()
            if plan is not None:
                alice_end = alice_end and FaultyChannel(alice_end, plan)
                bob_end = bob_end and FaultyChannel(bob_end, plan)
            self.ends.append(alice_end or bob_end)
            self.logs.append(stats.log)
            return alice_end, bob_end, stats

        self.factory = factory

    def session(self, netlist):
        kind = TwoPartySession if hasattr(netlist, "gates") else SequentialSession
        return kind(
            netlist, ot_group=TEST_GROUP_512, rng=self.rng,
            channel_factory=self.factory, ot_state=self.state,
        )


def run_two_parties(garbler_program, evaluator_program, **party_options):
    """Run ``program(party)`` for both roles, the evaluator on a second
    thread; returns ``(garbler_outcome, evaluator_outcome, parties)``
    where an outcome is the program's return value or the
    :class:`ReproError` it raised.  A party that fails closes its socket,
    as a dying process would."""
    left, right = socket.socketpair()
    parties = {
        "garbler": Party(left, "garbler", seed=101, **party_options),
        "evaluator": Party(right, "evaluator", seed=202, **party_options),
    }
    outcomes = {}

    def side(role, program, sock):
        try:
            outcomes[role] = program(parties[role])
        except ReproError as exc:
            outcomes[role] = exc
            sock.close()

    thread = threading.Thread(target=side, args=("evaluator", evaluator_program, right))
    thread.start()
    try:
        side("garbler", garbler_program, left)
    finally:
        thread.join(timeout=60.0)
        left.close()
        right.close()
    assert not thread.is_alive()
    return outcomes["garbler"], outcomes["evaluator"], parties


# ---------------------------------------------------------------------------
# (a), (b): what each party's objects hold
# ---------------------------------------------------------------------------


def reachable(roots):
    """Every data object reachable from ``roots`` through
    ``gc.get_referents`` — code, classes and modules are not data."""
    skip = (type, types.ModuleType, types.FunctionType, types.CodeType,
            types.BuiltinFunctionType, types.FrameType)
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def holdings(roots):
    """``(ints, blobs, bit_vectors)`` reachable from ``roots``: every int,
    every byte string (array buffers included) and every 0/1 sequence."""
    ints, blobs, vectors = set(), [], set()
    for obj in reachable(roots):
        if isinstance(obj, bool):
            continue
        if isinstance(obj, int):
            ints.add(obj)
        elif isinstance(obj, (bytes, bytearray)):
            blobs.append(bytes(obj))
        elif isinstance(obj, np.ndarray):
            blobs.append(obj.tobytes())
            if obj.ndim == 1 and obj.size and set(np.unique(obj)) <= {0, 1}:
                vectors.add(tuple(int(v) for v in obj))
        elif isinstance(obj, (list, tuple)) and obj and all(
            type(v) is int and v in (0, 1) for v in obj
        ):
            vectors.add(tuple(obj))
    return ints, blobs, vectors


def holds_label(holding, label):
    """Whether a 128-bit value is held: as an int, or as its 16 bytes
    (either order) anywhere inside a byte string or an array row."""
    ints, blobs, _ = holding
    forms = (label.to_bytes(16, "little"), label.to_bytes(16, "big"))
    return label in ints or any(form in blob for form in forms for blob in blobs)


class TestWhatEachPartyHolds:
    N_BOB = 136

    @pytest.fixture(scope="class")
    def run(self):
        """One extension-path session between two parties, with every
        payload either of them received and the pads each kept alive for
        inspection."""
        a, b = _bits(8, 1), _bits(self.N_BOB, 2)
        kept = {}

        def receiving(session, role):
            """Keep every payload ``role``'s end receives."""
            received = kept.setdefault(f"{role}_received", [])
            factory = session.channel_factory

            def recording():
                alice_end, bob_end, stats = factory()
                end = alice_end or bob_end
                fetch = end._fetch

                def keep(index, expected_tag):
                    frame = fetch(index, expected_tag)
                    received.append(frame.payload)
                    return frame

                end._fetch = keep
                return alice_end, bob_end, stats

            session.channel_factory = recording

        def garbler(party):
            # each process compiles its own copy of the public netlist
            session = party.session(mixing_circuit(self.N_BOB))
            receiving(session, "garbler")
            alice, bob = material = session.pregarble_many(1, None)[0]
            # Bob is elsewhere: Alice's half alone and whole, and the
            # connection's state is left for the run to set up with him
            assert bob is None and alice.garbled is not None and party.state.setup_bytes == 0
            kept["garbler"], kept["decode_bits"] = alice.garbler, alice.garbled.decode_bits
            result = session.run(a, None, pregarbled=material)
            return session, result

        def evaluator(party):
            session = party.session(mixing_circuit(self.N_BOB))
            receiving(session, "evaluator")
            merge = session._merge

            def keeping(link, output_labels):
                # what it evaluated: its view, both input label vectors,
                # the output labels it returns
                kept["evaluated"] = (link, output_labels)
                return merge(link, output_labels)

            session._merge = keeping
            return session, session.run(None, b)

        # each party's pads, as phase 1 hands them to it
        pads = {}
        extension_ot = ot_extension.extension_ot

        def keeping_pads(*args, **kwargs):
            made = extension_ot(*args, **kwargs)
            for role, side in zip(("garbler", "evaluator"), made):
                if side is not None:
                    pads[role] = side
            return made

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ot_extension, "extension_ot", keeping_pads)
            (g_session, g_result), (e_session, e_result), parties = run_two_parties(
                garbler, evaluator
            )
        circuit = g_session.circuit
        assert g_result.outputs == simulate(circuit, a, b)
        return {
            "a": a, "b": b, "circuit": circuit, "garbler": kept["garbler"],
            "decode_bits": kept["decode_bits"], "outputs": g_result.outputs,
            "e_result": e_result, "parties": parties, "pads": pads,
            "evaluator_roots": [
                e_session, parties["evaluator"].state, e_result,
                parties["evaluator"].ends, kept["evaluator_received"],
                kept["evaluated"], pads["evaluator"],
            ],
            "garbler_roots": [
                g_session, parties["garbler"].state, g_result,
                parties["garbler"].ends, kept["garbler"],
                kept["garbler_received"], pads["garbler"],
            ],
        }

    def test_evaluator_holds_no_garbler_secret(self, run):
        circuit, garbler = run["circuit"], run["garbler"]
        held = holdings(run["evaluator_roots"])
        delta = garbler.labels.delta
        assert not holds_label(held, delta)
        wires = (
            list(zip(circuit.alice_inputs, run["a"]))
            + list(zip(circuit.bob_inputs, run["b"]))
            + list(zip(circuit.outputs, run["outputs"]))
        )
        for wire, bit in wires:
            inactive = garbler.labels.select(wire, 1 - bit)
            assert not holds_label(held, inactive), f"inactive label of wire {wire}"
        # the walk does see what the evaluator legitimately has
        for wire, bit in wires:
            assert holds_label(held, garbler.labels.select(wire, bit)), wire
        # s: the garbler's OT-extension secret, in any of its three forms
        sender = run["parties"]["garbler"].state.sender
        s_bits = tuple(int(v) for v in np.unpackbits(sender.s_packed))
        _ints, blobs, vectors = held
        assert s_bits not in vectors
        assert not any(sender.s_packed.tobytes() in blob for blob in blobs)
        # nothing that decodes: no decode bits, no outputs, no sender half
        assert tuple(run["decode_bits"]) not in vectors
        assert run["e_result"].outputs == []
        assert run["parties"]["evaluator"].state.sender is None

    def test_garbler_holds_no_evaluator_secret(self, run):
        held = holdings(run["garbler_roots"])
        _ints, blobs, vectors = held
        assert tuple(run["b"]) not in vectors
        assert not any(np.packbits(run["b"]).tobytes() in blob for blob in blobs)
        garbler_state = run["parties"]["garbler"].state
        receiver = run["parties"]["evaluator"].state.receiver
        assert garbler_state.receiver is None
        s_bits = np.unpackbits(garbler_state.sender.s_packed)
        for j, s_j in enumerate(s_bits):
            seeds = (receiver.seeds0[j], receiver.seeds1[j])
            # the base OT gave it k_j^{s_j} and nothing of the other seed
            assert any(seeds[s_j] in blob for blob in blobs)
            assert not any(seeds[1 - s_j] in blob for blob in blobs), f"seed {j}"
        # the walk is not blind on this side either: it finds Δ
        assert holds_label(held, run["garbler"].labels.delta)

    def test_evaluator_holds_the_pads_it_chose_and_no_other(self, run):
        mine, theirs = run["pads"]["evaluator"], run["pads"]["garbler"]
        assert mine.sender is None and theirs.choices is None and theirs.chosen is None
        r = mine.choices
        held = holdings(run["evaluator_roots"])
        assert tuple(int(v) for v in r) in held[2]
        for i, bit in enumerate(r):
            # x_r is the garbler's pad of r: held; x_{1-r} never is
            assert np.array_equal(mine.chosen[i], theirs.sender[i, bit])
            assert holds_label(held, int.from_bytes(theirs.sender[i, bit], "little"))
            inactive = int.from_bytes(theirs.sender[i, 1 - bit].tobytes(), "little")
            assert not holds_label(held, inactive), f"pad {i}"

    def test_garbler_holds_e_but_no_choice(self, run):
        r = run["pads"]["evaluator"].choices
        e = np.packbits(np.array(run["b"], dtype=np.uint8) ^ r).tobytes()
        held = holdings(run["garbler_roots"])
        _ints, blobs, vectors = held
        # what crossed to it: c blinded by r, and neither half of that
        assert any(e == blob for blob in blobs)
        assert tuple(int(v) for v in r) not in vectors
        assert not any(np.packbits(r).tobytes() in blob for blob in blobs)
        assert tuple(run["b"]) not in vectors


class TestWhatAPooledCopyHolds:
    """A pooled copy on the demo net is two halves, made for the
    server's weights.  Alice's keeps Δ and its interface wires' rows: no
    label plane, no table plane, no internal label, no OT pad and no Bob
    bit.  Bob's keeps the view of the tables and constant labels that
    crossed to it, and his input labels with the bits they encode: no
    garbler, no Δ, no OT pad, no label pair, and of the interface
    wires' labels the two active constants and his own active labels
    alone."""

    @pytest.fixture(scope="class")
    def pooled(self):
        from repro.cli import _demo_service
        from repro.engine.pool import PregarbledPool
        from repro.gc import LabelStore

        service, _ = _demo_service()
        circuit, bits = service.compiled.circuit, service.compiled.server_bits()
        service.close()
        rng = random.Random(29)
        pool = PregarbledPool(circuit, bits, capacity=1, ot_group=TEST_GROUP_512, rng=rng)
        before = rng.getstate()
        assert pool.warm() == 1
        replay = random.Random()
        replay.setstate(before)
        # the gate-at-a-time oracle on the same rng stream keeps every wire
        reference = Garbler(circuit, label_store=LabelStore(rng=replay))
        reference.garble()
        return circuit, pool, pool.acquire(), reference, bits

    def test_no_plane_and_no_internal_label(self, pooled):
        circuit, _, (alice, bob), reference, _ = pooled
        assert alice.garbler.labels.delta == reference.labels.delta
        objects = list(reachable([alice]))
        assert not [
            obj.shape for obj in objects
            if isinstance(obj, np.ndarray) and obj.ndim
            and obj.shape[0] >= circuit.n_wires
        ]
        # the tables crossed to Bob's half and Alice's let its plane go
        assert alice.garbled is None
        table_bytes = 32 * circuit.counts().non_xor
        assert not [
            obj for obj in objects
            if isinstance(obj, (bytes, bytearray, np.ndarray))
            and getattr(obj, "nbytes", len(obj)) >= table_bytes
        ]
        row = bob.view.tables[len(bob.view.tables) // 2].tobytes()
        assert not any(row in blob for blob in holdings([alice])[1])
        interface = set(circuit.interface_wires().tolist())
        internal = [w for w in range(circuit.n_wires) if w not in interface]
        held = holdings([alice])
        for wire in internal[:: len(internal) // 6]:
            assert not holds_label(held, reference.labels.zero(wire)), wire
        # the walk does find what the copy keeps
        for wire in (circuit.outputs[0], circuit.bob_inputs[0]):
            assert holds_label(held, reference.labels.zero(wire)), wire

    def test_no_half_holds_an_ot_pad(self, pooled):
        _, _, (alice, bob), _, bits = pooled
        for half in (alice, bob):
            objects = list(reachable([half]))
            assert not any(isinstance(obj, ot_extension.Pads) for obj in objects)
            assert not any(isinstance(obj, IKNPState) for obj in objects)
            # no (m, 2, 16) plane: neither the sender's pads nor a y frame
            assert not [
                obj.shape for obj in objects
                if isinstance(obj, np.ndarray) and obj.shape == (len(bits), 2, 16)
            ]
        # Alice's half holds no Bob bit, packed or not; the walk finds
        # them in Bob's
        _ints, blobs, vectors = holdings([alice])
        assert tuple(bits) not in vectors
        assert not any(np.packbits(bits).tobytes() in blob for blob in blobs)
        assert tuple(bits) in holdings([bob])[2]

    def test_bobs_half_holds_no_garbler_secret(self, pooled):
        circuit, _, (alice, bob), reference, bits = pooled
        assert alice.copy_id == bob.copy_id
        objects = list(reachable([bob]))
        assert not any(isinstance(obj, Garbler) for obj in objects)
        # the view rebuilt from the frames, with no decode bit
        assert any(obj is bob.view for obj in objects)
        assert bob.view.decode_bits == [] and bob.view.tweak_base == 0
        assert len(bob.view.tables) == circuit.counts().non_xor
        # his labels are the ones his bits select, and he keeps the bits
        assert bob.bits.tolist() == bits
        assert [int.from_bytes(row.tobytes(), "little") for row in bob.labels] == [
            reference.labels.select(wire, bit) for wire, bit in zip(circuit.bob_inputs, bits)
        ]
        held = holdings([bob])
        assert not holds_label(held, reference.labels.delta)
        # of the interface wires' labels, the active constants (constant
        # 0's zero-label, constant 1's one-label) and his own active ones
        active = {(CONST_ZERO, 0), (CONST_ONE, 1)} | set(zip(circuit.bob_inputs, bits))
        for wire in circuit.interface_wires().tolist():
            for bit in (0, 1):
                label = reference.labels.select(wire, bit)
                assert holds_label(held, label) is ((wire, bit) in active), (wire, bit)

    def test_copy_bytes(self, pooled):
        circuit, pool, (alice, bob), _, bits = pooled
        copy_bytes = pool.stats()["copy_bytes"]
        # interface rows and Δ; Bob's labels, his bits and the tables
        assert (alice.nbytes, bob.nbytes) == (12_752, 16 * 702 + 702 + 358_432)
        assert len(bits) == 702
        assert copy_bytes == alice.nbytes + bob.nbytes == 383_118
        # tables are most of it
        assert 32 * circuit.counts().non_xor > 0.9 * copy_bytes

    def test_offline_and_request_bytes_add_up_to_a_cold_request(self, pooled):
        circuit, pool, (_alice, bob), _, bits = pooled
        # the OT's u, e and y, the tables and constants crossed before the request
        assert pool.stats()["offline_bytes"] == bob.offline_bytes == 392_312
        rng = random.Random(31)
        session = TwoPartySession(circuit, ot_group=TEST_GROUP_512, rng=rng)
        a = [rng.randrange(2) for _ in circuit.alice_inputs]
        (copy,) = session.pregarble_many(1, bits)
        hit = session.run(a, bits, pregarbled=copy)
        cold = session.run(a, bits)
        assert hit.outputs == cold.outputs == simulate(circuit, a, bits)
        # a pool hit's two frames: alice_labels and output_labels
        assert set(hit.comm) == {"alice_labels", "output_labels"}
        assert hit.total_comm_bytes == 1_488
        assert copy[1].offline_bytes + hit.total_comm_bytes == cold.total_comm_bytes == 393_800


class TestAPooledCopyServesOneInput:
    """Bob's half is made for one input: a lane with other Bob bits is
    refused before any half is claimed, and a half serves once."""

    CIRCUIT = mixing_circuit(12)

    def _session(self):
        return TwoPartySession(self.CIRCUIT, ot_group=TEST_GROUP_512, rng=random.Random(3))

    def test_other_bob_bits_are_refused_and_nothing_is_claimed(self):
        session = self._session()
        a, bits = _bits(8, 1), _bits(12, 2)
        other = [1 - bit for bit in bits]
        copies = session.pregarble_many(2, bits)
        for lanes in ([bits, other], [other, bits]):
            with pytest.raises(ProtocolError, match="other input bits"):
                session.run_many([a, a], lanes, pregarbled=copies)
            assert not any(half.consumed for copy in copies for half in copy)
        results = session.run_many([a, a], [bits, bits], pregarbled=copies)
        assert [r.outputs for r in results] == [simulate(self.CIRCUIT, a, bits)] * 2
        assert all(r.pregarbled for r in results)

    def test_a_half_is_single_use(self):
        session = self._session()
        a, bits = _bits(8, 1), _bits(12, 2)
        (copy,) = session.pregarble_many(1, bits)
        assert session.run(a, bits, pregarbled=copy).outputs == simulate(self.CIRCUIT, a, bits)
        assert all(half.consumed for half in copy)
        with pytest.raises(ProtocolError, match="cannot be reused"):
            session.run(a, bits, pregarbled=copy)
        # each half on its own: Bob's labels never serve a second request
        with pytest.raises(ProtocolError, match="cannot be reused"):
            copy[1].claim()

    def test_the_width_of_the_bits_is_checked_before_garbling(self):
        session = self._session()
        with pytest.raises(ProtocolError, match="width"):
            session.pregarble_many(1, _bits(11, 2))
        with pytest.raises(ProtocolError, match="width"):
            session.pregarble_many(1, None)
        assert session.ot_state.extensions == 0


# ---------------------------------------------------------------------------
# (c): frame-for-frame parity with the in-memory session
# ---------------------------------------------------------------------------


def _memory_log(session_type, netlist, alice, bob):
    """The in-memory session's log, on an OT state of its own as each
    party holds one per connection (its set-up is handed across in
    memory, so the log has no ``ot_setup`` frame)."""
    logs = []

    def factory():
        alice_end, bob_end, stats = make_channel_pair()
        logs.append(stats.log)
        return alice_end, bob_end, stats

    rng = random.Random(5)
    session = session_type(
        netlist, ot_group=TEST_GROUP_512, rng=rng, channel_factory=factory,
        ot_state=IKNPState(group=TEST_GROUP_512, rng=rng),
    )
    session.run(alice, bob)
    return logs[0]


class TestParityWithTheInMemorySession:
    @pytest.mark.parametrize("n_bob", [5, 127, 128, 200])
    def test_two_party_logs_match_frame_for_frame(self, n_bob):
        circuit = mixing_circuit(n_bob, seed=n_bob)
        inputs = [(_bits(8, i), _bits(n_bob, 10 + i)) for i in range(2)]
        memory = _memory_log(TwoPartySession, circuit, *inputs[0])

        garbler, evaluator, parties = run_two_parties(
            lambda p: [p.session(circuit).run(a, None).outputs for a, _ in inputs],
            lambda p: [p.session(circuit).run(None, b).outputs for _, b in inputs],
        )
        assert garbler == [simulate(circuit, a, b) for a, b in inputs]
        assert evaluator == [[], []]
        # the connection holds an OT state, and a transfer extends whenever
        # a state is in hand: its first session frames the set-up at every
        # width, below the extension threshold too, and only the first
        for party in parties.values():
            first, second = party.logs
            assert [f for f in first if f[1] == "ot_setup"] == SETUP_FRAMES
            assert [f for f in first if f[1] != "ot_setup"] == memory
            assert second == memory
        first = parties["garbler"].logs[0]
        # ... between Alice's labels and the extension's own flights
        assert [tag for _, tag, _ in first[2:7]] == ["alice_labels"] + 3 * ["ot_setup"] + ["ot"]

    def test_registered_sequential_core_matches_frame_for_frame(self):
        cell = folded_mac_cell(FMT, fan_in=4, fold=1)
        assert cell.n_state > 0
        alice = [_bits(cell.core.n_alice, i) for i in range(2)]
        bob = [_bits(cell.core.n_bob, 5 + i) for i in range(2)]
        memory = _memory_log(SequentialSession, cell, alice, bob)
        assert [tag for _, tag, _ in memory].count("state_labels") == 1

        garbler, evaluator, parties = run_two_parties(
            lambda p: p.session(cell).run(alice, None, cycles=2),
            lambda p: p.session(cell).run(None, bob, cycles=2),
        )
        assert garbler.outputs_per_cycle == cell.run(alice, bob, cycles=2)
        assert evaluator.outputs_per_cycle == [[], []]
        assert evaluator.garble_times == [] and len(evaluator.evaluate_times) == 2
        for party in parties.values():
            (log,) = party.logs
            assert [f for f in log if f[1] == "ot_setup"] == SETUP_FRAMES
            assert [f for f in log if f[1] != "ot_setup"] == memory
        assert garbler.comm == evaluator.comm


# ---------------------------------------------------------------------------
# (d): one base OT per connection
# ---------------------------------------------------------------------------


class TestOneBaseOTPerConnection:
    def test_three_sessions_pay_387_modexps_once(self, monkeypatch, base_batches):
        circuit = mixing_circuit(130, seed=3)
        inputs = [(_bits(8, i), _bits(130, 20 + i)) for i in range(3)]
        calls = {}
        original = OTGroup.power

        def counting(self, base, exponent):
            name = threading.current_thread().name
            calls[name] = calls.get(name, 0) + 1
            return original(self, base, exponent)

        monkeypatch.setattr(OTGroup, "power", counting)

        def program(own):
            def run(party):
                after_each = []
                for pair in inputs:
                    bits = (pair[0], None) if own == 0 else (None, pair[1])
                    party.session(circuit).run(*bits)
                    after_each.append(calls.get(threading.current_thread().name, 0))
                return after_each
            return run

        garbler, evaluator, parties = run_two_parties(program(0), program(1))
        # the garbler is the batch's receiver: a key and a recovery per
        # transfer; the evaluator its sender: c, g^r, c^r and PK_0^r each
        assert garbler == [2 * KAPPA] * 3
        assert evaluator == [3 + KAPPA] * 3
        assert garbler[0] + evaluator[0] == 387
        assert base_batches == [1]
        assert [p.state.extensions for p in parties.values()] == [3, 3]


    def test_a_failed_session_keeps_the_connection_state(self, base_batches):
        """The ``y`` frame is corrupted: both parties' first session ends
        in a typed transient error, with every frame of it consumed.  The
        second session on the same socket runs on the states both kept —
        no ``ot_setup`` frame, no base OT — because the evaluator's
        extension counter crosses the wire: nothing counts in lockstep."""
        circuit = mixing_circuit(130, seed=6)
        inputs = [(_bits(8, i), _bits(130, 30 + i)) for i in range(2)]
        plan = FaultPlan([FaultSpec("corrupt", tag="ot", nth=2)], seed=7)
        between = threading.Barrier(2, timeout=30.0)

        def program(own):
            def run(party):
                outcomes = []
                for pair in inputs:
                    bits = (pair[0], None) if own == 0 else (None, pair[1])
                    try:
                        outcomes.append(party.session(circuit).run(*bits).outputs)
                    except ReproError as exc:
                        outcomes.append(exc)
                    between.wait()  # one session at a time on the socket
                return outcomes
            return run

        garbler, evaluator, parties = run_two_parties(
            program(0), program(1), plan=plan, io_timeout_s=0.5
        )
        assert [fault[:2] for fault in plan.applied] == [("corrupt", "ot")]
        for first in (garbler[0], evaluator[0]):
            assert isinstance(first, ReproError) and is_transient(first)
        a, b = inputs[1]
        assert garbler[1] == simulate(circuit, a, b) and evaluator[1] == []
        assert base_batches == [1]
        for party in parties.values():
            first, second = party.logs
            assert [tag for _, tag, _ in first].count("ot_setup") == 3
            assert "ot_setup" not in [tag for _, tag, _ in second]
            assert party.state.extensions == 2

# ---------------------------------------------------------------------------
# (e): faults on a one-ended link
# ---------------------------------------------------------------------------


class TestFaultsOnAOneEndedLink:
    @pytest.mark.parametrize("kind", ["corrupt", "drop"])
    @pytest.mark.parametrize(
        "tag, nth",
        [("ot", 0), ("ot", 1), ("ot_setup", 0), ("ot_setup", 1), ("ot_setup", 2),
         ("state_labels", 0)],
    )
    def test_typed_transient_error_on_both_ends_never_a_label(self, kind, tag, nth):
        plan = FaultPlan([FaultSpec(kind, tag=tag, nth=nth)], seed=7)
        if tag == "state_labels":
            netlist = folded_mac_cell(FMT, fan_in=4, fold=1)
            alice, bob = [_bits(netlist.core.n_alice, 1)], [_bits(netlist.core.n_bob, 2)]
        else:
            netlist = mixing_circuit(130, seed=4)
            alice, bob = _bits(8, 1), _bits(130, 2)
        garbler, evaluator, _parties = run_two_parties(
            lambda p: p.session(netlist).run(alice, None),
            lambda p: p.session(netlist).run(None, bob),
            plan=plan, io_timeout_s=0.5,
        )
        assert [fault[:2] for fault in plan.applied] == [(kind, tag)]
        for outcome in (garbler, evaluator):
            assert isinstance(outcome, ReproError), outcome
            assert is_transient(outcome)


# ---------------------------------------------------------------------------
# (f): the batched path is a both-parties method
# ---------------------------------------------------------------------------


class TestRunManyNeedsBothEnds:
    def test_one_ended_link_is_refused_before_any_claim(self):
        circuit = mixing_circuit(5)
        left, right = socket.socketpair()
        try:
            session = TwoPartySession(
                circuit, ot_group=TEST_GROUP_512, rng=random.Random(1),
                channel_factory=peer_channel_factory(left, "garbler"),
            )
            material = session.pregarble_many(2, None)
            # Alice's halves alone and whole: no OT ran, so the state is
            # not set up here in memory
            assert [
                (alice.garbled is not None, bob) for alice, bob in material
            ] == [(True, None)] * 2
            assert session.ot_state.setup_bytes == 0
            with pytest.raises(ProtocolError, match="both ends"):
                session.run_many(
                    [_bits(8, 1)] * 2, [_bits(5, 2)] * 2, pregarbled=material
                )
            assert not any(alice.consumed for alice, _ in material)
        finally:
            left.close()
            right.close()

    def test_a_session_hosting_bob_alone_never_garbles(self, monkeypatch):
        """Only Alice garbles: a session whose links host the evaluator
        alone refuses to pregarble before any garbler is built."""
        built = []
        init = Garbler.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Garbler, "__init__", counting)
        left, right = socket.socketpair()
        try:
            session = TwoPartySession(
                mixing_circuit(5), ot_group=TEST_GROUP_512, rng=random.Random(1),
                channel_factory=peer_channel_factory(right, "evaluator"),
            )
            with pytest.raises(ProtocolError, match="Bob alone"):
                session.pregarble_many(2, _bits(5, 2))
            assert built == [] and session.ot_state.setup_bytes == 0
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# the peer control records of `cli infer --connect`
# ---------------------------------------------------------------------------


class TestPeerRecordsCarryNoInput:
    def test_connect_run_sends_oracle_only(self, monkeypatch, capsys):
        from repro import cli
        from repro.transport import worker

        records = []
        send = worker.send_ctl

        def recording(sock, record):
            records.append(record)
            send(sock, record)

        monkeypatch.setattr(worker, "send_ctl", recording)
        service, _x = cli._demo_service()
        server = worker.WorkerServer(service)
        thread = threading.Thread(target=server.serve_forever, kwargs={"once": True})
        thread.start()
        try:
            host, port = server.address
            assert cli.main([
                "infer", "-b", "two_party", "--transport", "socket",
                "--connect", f"{host}:{port}", "-n", "2",
            ]) == 0
        finally:
            thread.join(timeout=60.0)
            service.close()
        assert not thread.is_alive()
        out = capsys.readouterr().out
        assert out.count("comm agreement: OK") == 2
        assert "sample 0" in out and "base OT: paid" in out and "base OT: kept" in out
        assert "sessions agreed 2/2" in out
        # 2 x (peer, ack, peer_result) + shutdown and its ack
        assert [r.get("op") for r in records] == 2 * ["peer", "peer", "peer_result"] + 2 * ["shutdown"]
        allowed = {"op", "kdf", "kdf_fingerprint", "ok", "error", "comm_bytes"}
        for record in records:
            assert set(record) <= allowed, record
