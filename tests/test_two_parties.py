"""What only two independent parties can show.

Every test here runs the garbler and the evaluator as two parties that
share nothing but the public netlist: each on its own thread and its own
end of a socketpair, each with its own rng, each handed its own input
only — the deployment of :mod:`repro.transport.peer`.  Covered: what the
evaluator's objects hold (no Δ, no ``s``, no inactive label, no decode
bit), what the garbler's hold (no server bit vector, no seed it did not
choose), frame-for-frame parity with the in-memory session, one base OT
per connection, fault closure on a one-ended link, and the ``peer``
control records of a ``cli infer --connect`` run.
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
from repro.compile import folded_mac_cell
from repro.errors import ProtocolError, ReproError
from repro.gc import SequentialSession, TwoPartySession
from repro.gc.channel import make_channel_pair
from repro.gc.ot import TEST_GROUP_512, OTGroup
from repro.gc.ot_extension import KAPPA, IKNPState
from repro.resilience import FaultPlan, FaultSpec, FaultyChannel, is_transient
from repro.transport.peer import peer_channel_factory

FMT = FixedPointFormat(2, 6)
WIDTH = (TEST_GROUP_512.prime.bit_length() + 7) // 8
SETUP_FRAMES = [
    ("b2a", "ot_setup", WIDTH + 4),
    ("a2b", "ot_setup", KAPPA * WIDTH + 4),
    ("b2a", "ot_setup", KAPPA * (WIDTH + 32) + 4),
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
        wires.append(getattr(bld, f"emit_{op}")(rng.choice(wires), rng.choice(wires)))
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
        payload either of them received kept alive for inspection."""
        a, b = _bits(8, 1), _bits(self.N_BOB, 2)
        kept = {}

        def garbler(party):
            # each process compiles its own copy of the public netlist
            session = party.session(mixing_circuit(self.N_BOB))
            material = session.pregarble()
            kept["garbler"], kept["decode_bits"] = material.garbler, material.garbled.decode_bits
            result = session.run(a, None, pregarbled=material)
            return session, result

        def evaluator(party):
            session = party.session(mixing_circuit(self.N_BOB))
            received = kept.setdefault("received", [])
            factory = session.channel_factory

            def recording():
                alice_end, bob_end, stats = factory()
                fetch = bob_end._fetch

                def keep(index, expected_tag):
                    frame = fetch(index, expected_tag)
                    received.append(frame.payload)
                    return frame

                bob_end._fetch = keep
                return alice_end, bob_end, stats

            session.channel_factory = recording
            merge = session._merge

            def keeping(link, output_labels, share_result=False):
                # what it evaluated: its view, both input label vectors,
                # the output labels it returns
                kept["evaluated"] = (link, output_labels)
                return merge(link, output_labels, share_result)

            session._merge = keeping
            return session, session.run(None, b)

        (g_session, g_result), (e_session, e_result), parties = run_two_parties(
            garbler, evaluator
        )
        circuit = g_session.circuit
        assert g_result.outputs == simulate(circuit, a, b)
        return {
            "a": a, "b": b, "circuit": circuit, "garbler": kept["garbler"],
            "decode_bits": kept["decode_bits"], "outputs": g_result.outputs,
            "e_result": e_result, "parties": parties,
            "evaluator_roots": [
                e_session, parties["evaluator"].state, e_result,
                parties["evaluator"].ends, kept["received"], kept["evaluated"],
            ],
            "garbler_roots": [
                g_session, parties["garbler"].state, g_result,
                parties["garbler"].ends, kept["garbler"],
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
            material = session.pregarble_many(2)
            with pytest.raises(ProtocolError, match="both ends"):
                session.run_many(
                    [_bits(8, 1)] * 2, [_bits(5, 2)] * 2, pregarbled=material
                )
            assert not any(unit.consumed for unit in material)
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# the peer control records of `cli infer --connect`
# ---------------------------------------------------------------------------


class TestPeerRecordsCarryNoInput:
    @pytest.mark.parametrize("flow", ["two_party", "folded"])
    def test_connect_run_sends_flow_and_oracle_only(self, flow, monkeypatch, capsys):
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
                "infer", "-b", flow, "--transport", "socket",
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
        allowed = {"op", "flow", "kdf", "kdf_fingerprint", "ok", "error", "comm_bytes"}
        for record in records:
            assert set(record) <= allowed, record
