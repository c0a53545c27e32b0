"""Oblivious-transfer tests: group arithmetic under both providers, base
OT and IKNP extension."""

import os
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBuilder, simulate
from repro.errors import ChannelIntegrityError, OTError
from repro.gc import TwoPartySession, ot
from repro.gc.channel import make_channel_pair
from repro.gc.ot import (
    MODP_2048,
    TEST_GROUP_512,
    OTGroup,
    OTReceiver,
    OTSender,
    base_ot_in_process,
    base_ot_over_channel,
)
from repro.gc.ot_extension import IKNPState, chosen_ot, derandomize, extension_ot

GROUPS = (TEST_GROUP_512, MODP_2048)

#: for tests that hold libcrypto's answers against ``pow``'s: on a host
#: without the BN calls they would compare ``pow`` with itself
needs_libcrypto = pytest.mark.skipif(
    TEST_GROUP_512.provider != "libcrypto",
    reason="no libcrypto with the BN calls on this host",
)


def _pairs(n, rng, length=16):
    return [
        (
            bytes(rng.randrange(256) for _ in range(length)),
            bytes(rng.randrange(256) for _ in range(length)),
        )
        for _ in range(n)
    ]


def _plane(pairs):
    """Byte pairs as the extension's ``(m, 2, length)`` sender plane."""
    return np.frombuffer(
        b"".join(m0 + m1 for m0, m1 in pairs), dtype=np.uint8
    ).reshape(len(pairs), 2, -1)


def _width(group):
    return (group.prime.bit_length() + 7) // 8


def _no_bn_symbols(lib):
    raise AttributeError("BN_mod_exp_mont_consttime")


@pytest.fixture
def python_pow(monkeypatch):
    """Force ``OTGroup.power`` onto ``pow`` for one test, the way
    ``numpy_aes`` forces the AES fallback: the libcrypto loader finds
    every candidate missing a BN symbol (one function for the whole
    module, so the loader's per-``bind`` cache walks them once)."""
    monkeypatch.setattr(ot, "_bind_bn", _no_bn_symbols)
    ot._native_modulus.cache_clear()
    yield
    ot._native_modulus.cache_clear()


@pytest.fixture(params=["libcrypto", "python"])
def provider(request):
    """Every test that takes this passes with ``power`` in libcrypto and
    with it on the ``pow`` fallback."""
    if request.param == "python":
        request.getfixturevalue("python_pow")
    if TEST_GROUP_512.provider != request.param:
        pytest.skip("no libcrypto with the BN calls on this host")
    return request.param


def _transcript(group, n, seed):
    """Every flight and the output of one seeded batch of ``n``."""
    rng = random.Random(seed)
    pairs = _pairs(n, rng)
    choices = [rng.randrange(2) for _ in range(n)]
    sender = OTSender(pairs, group=group, rng=rng)
    receiver = OTReceiver(choices, group=group, rng=rng)
    c = sender.setup()
    keys = receiver.public_keys(c)
    responses = sender.respond(keys)
    messages = receiver.recover(*responses)
    assert messages == [pair[choice] for pair, choice in zip(pairs, choices)]
    return c, keys, responses, messages


class TestGroupArithmetic:
    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
    def test_power_is_pow_on_the_edges(self, group, provider):
        assert group.provider == provider
        p, top = group.prime, 1 << (8 * _width(group))
        for base in (0, 1, p - 1, p, p + 1, top - 1, top):
            for exponent in (0, 1, p - 2, p - 1, top):
                assert group.power(base, exponent) == pow(base, exponent, p)

    @needs_libcrypto
    @given(
        group=st.sampled_from(GROUPS),
        base=st.integers(min_value=0, max_value=1 << 2056),
        exponent=st.integers(min_value=0, max_value=1 << 2056),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_is_pow_on_drawn_pairs(self, group, base, exponent):
        assert group.power(base, exponent) == pow(base, exponent, group.prime)

    def test_negative_exponent_and_even_modulus_take_pow(self, provider):
        for group in GROUPS:
            for a in (2, 12345, group.prime - 7):
                assert group.power(a, -1) == group.inverse(a)
        for modulus in (1, 2, 1 << 64, 10**9):
            toy = OTGroup(prime=modulus, generator=3, name="toy-even")
            assert toy.provider == "python"
            assert toy.power(3, 41) == pow(3, 41, modulus)
        odd = OTGroup(prime=101, generator=2, name="toy-odd")
        assert odd.provider == provider
        assert [odd.power(2, e) for e in (0, 1, 7, 100)] == [1, 2, 27, 1]

    def test_groups_keep_their_value_semantics(self):
        # the native modulus is cached beside the dataclass, not in it
        clone = OTGroup(prime=TEST_GROUP_512.prime, generator=2, name="test-25519")
        assert clone == TEST_GROUP_512 and hash(clone) == hash(TEST_GROUP_512)
        assert [f.name for f in OTGroup.__dataclass_fields__.values()] == [
            "prime", "generator", "name",
        ]
        with pytest.raises(AttributeError):
            clone.provider = "python"

    @needs_libcrypto
    def test_concurrent_threads_get_the_single_threaded_answer(self):
        """ctypes drops the GIL inside ``BN_mod_exp``: scratch BIGNUMs and
        the output buffer are per thread, so no call may read another's
        (more threads than cores, short switch interval)."""
        n_threads, calls = 6, 300
        rng = random.Random(21)
        work = []  # per thread: [(group, base, exponent, expected)]
        for _ in range(n_threads):
            cases = []
            for group in (TEST_GROUP_512, TEST_GROUP_512, TEST_GROUP_512, MODP_2048):
                base, exponent = rng.randrange(group.prime), rng.randrange(group.prime)
                cases.append((group, base, exponent, pow(base, exponent, group.prime)))
            work.append(cases)
        wrong = []
        start = threading.Barrier(n_threads)

        def worker(t):
            start.wait(timeout=30)
            for i in range(calls):
                group, base, exponent, expected = work[t][i % 4]
                if group.power(base, exponent) != expected:
                    wrong.append((t, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_computes_correctly_after_the_parent_has(self, provider):
        cases = [(TEST_GROUP_512, 0xC0FFEE, TEST_GROUP_512.prime - 3), (MODP_2048, 3, 0xDEADBEEF)]
        expected = [pow(b, e, group.prime) for group, b, e in cases]
        assert [g.power(b, e) for g, b, e in cases] == expected  # parent first
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            ok = False
            try:
                ok = [g.power(b, e) for g, b, e in cases] == expected
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert [g.power(b, e) for g, b, e in cases] == expected  # parent still fine


class TestProvidersAgree:
    @needs_libcrypto
    @pytest.mark.parametrize(
        "group, n", [(TEST_GROUP_512, 128), (MODP_2048, 2)], ids=lambda v: getattr(v, "name", v)
    )
    def test_same_flights_and_messages_under_one_seed(self, group, n, request):
        native = _transcript(group, n, seed=31)
        request.getfixturevalue("python_pow")
        assert group.provider == "python"
        assert _transcript(group, n, seed=31) == native
        c, keys, (g_r, ciphertexts), _ = native
        assert len(ciphertexts) == n  # and one g^r for the batch
        assert len(set(keys)) == n and c not in keys and g_r not in keys


def _base_ot(pairs, choices, rng, msg_len=16):
    """A base-OT batch with both parties here, over a fresh link."""
    alice_end, bob_end, _ = make_channel_pair()
    return base_ot_over_channel(
        pairs, choices, msg_len, sender_end=alice_end, receiver_end=bob_end,
        group=TEST_GROUP_512, rng=rng,
    )


class TestBaseOT:
    def test_receiver_gets_chosen_messages(self):
        rng = random.Random(1)
        pairs = _pairs(24, rng)
        choices = [rng.randrange(2) for _ in range(24)]
        out = _base_ot(pairs, choices, rng)
        for msg, choice, pair in zip(out, choices, pairs):
            assert msg == pair[choice]

    def test_receiver_never_gets_other_message(self):
        rng = random.Random(2)
        pairs = _pairs(16, rng)
        choices = [rng.randrange(2) for _ in range(16)]
        out = _base_ot(pairs, choices, rng)
        for msg, choice, pair in zip(out, choices, pairs):
            assert msg != pair[1 - choice]

    @pytest.mark.parametrize("seed", range(3))
    def test_in_process_batch_is_the_framed_batch(self, seed):
        # the same steps and rng draws in the same order: the same
        # messages, and the rng left where the framed run leaves it
        rng = random.Random(seed)
        pairs = _pairs(12, rng)
        choices = [rng.randrange(2) for _ in range(12)]
        framed_rng, in_process_rng = random.Random(seed + 7), random.Random(seed + 7)
        framed = _base_ot(pairs, choices, framed_rng)
        in_process = base_ot_in_process(
            pairs, choices, 16, group=TEST_GROUP_512, rng=in_process_rng
        )
        assert in_process == framed == [pair[c] for pair, c in zip(pairs, choices)]
        assert in_process_rng.getstate() == framed_rng.getstate()

    def test_flights_are_the_tables_base_ot_entries(self):
        rng = random.Random(4)
        alice_end, bob_end, stats = make_channel_pair()
        base_ot_over_channel(
            _pairs(8, rng), [1] * 8, 16, sender_end=alice_end, receiver_end=bob_end,
            group=TEST_GROUP_512, rng=rng,
        )
        assert [tag for _, tag, _ in stats.log] == ["ot_setup"] * 3
        assert sum(size for *_, size in stats.log) == ot.base_ot_bytes(TEST_GROUP_512, 8, 16)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(OTError):
            OTSender([(b"aa", b"bbb")], group=TEST_GROUP_512)

    def test_count_mismatch_rejected(self):
        # two public keys against one message pair: the sender's size
        # check refuses the flight before any exponentiation
        with pytest.raises(ChannelIntegrityError, match="base-OT keys payload carries 64 bytes"):
            _base_ot([(b"a", b"b")], [0, 1], random.Random(0), msg_len=1)

    def test_bad_public_key_rejected(self):
        rng = random.Random(3)
        sender = OTSender(_pairs(1, rng), group=TEST_GROUP_512, rng=rng)
        sender.setup()
        with pytest.raises(OTError):
            sender.respond([0])

    def test_bad_public_key_hidden_among_good_ones_rejected(self):
        # the batched inversion multiplies every key's power together: a
        # bad key must be refused before it, not vanish into the product
        group = TEST_GROUP_512
        rng = random.Random(5)
        n = 128
        for bad in (0, 1, group.prime - 1, group.prime, group.prime + 5, -3):
            sender = OTSender(_pairs(n, rng), group=group, rng=rng)
            keys = OTReceiver([0] * n, group=group, rng=rng).public_keys(sender.setup())
            keys[77] = bad
            with pytest.raises(OTError, match="receiver public key"):
                sender.respond(keys)

    @pytest.mark.parametrize("bad", [-1, 0, 1, "p-1", "p", "p+2", "2^w"])
    def test_receiver_rejects_elements_outside_the_group(self, bad):
        group = TEST_GROUP_512
        bad = {
            "p-1": group.prime - 1, "p": group.prime, "p+2": group.prime + 2,
            "2^w": 1 << (8 * _width(group)),
        }.get(bad, bad)
        rng = random.Random(6)
        with pytest.raises(OTError, match="setup element"):
            OTReceiver([0, 1], group=group, rng=rng).public_keys(bad)
        sender = OTSender(_pairs(2, rng), group=group, rng=rng)
        receiver = OTReceiver([0, 1], group=group, rng=rng)
        g_r, ciphertexts = sender.respond(receiver.public_keys(sender.setup()))
        with pytest.raises(OTError, match="response element"):
            receiver.recover(bad, ciphertexts)
        assert len(receiver.recover(g_r, ciphertexts)) == 2

    def test_response_count_checked(self):
        rng = random.Random(4)
        receiver = OTReceiver([0, 1], group=TEST_GROUP_512, rng=rng)
        receiver.public_keys(5)
        with pytest.raises(OTError):
            receiver.recover(5, [])

    def test_a_narrow_session_extends_its_own_state(self, recording_channels):
        """Four input bits take the extension like any other width: the
        request's "ot" frames are counter and ``u`` (128 columns of one
        byte), ``e`` (one byte) and ``y`` (two 16-byte labels per bit);
        the session's own state paid the base OT in memory."""
        bld = CircuitBuilder()
        a, b = bld.add_alice_inputs(4), bld.add_bob_inputs(4)
        for x, y in zip(a, b):
            bld.mark_output(bld.emit_and(x, y))
        circuit = bld.build()
        factory, frames = recording_channels
        session = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(7),
            channel_factory=factory,
        )
        result = session.run([1, 1, 0, 1], [1, 0, 1, 1])
        assert result.outputs == simulate(circuit, [1, 1, 0, 1], [1, 0, 1, 1])
        sizes = [len(payload) + 4 for tag, payload in frames if tag == "ot"]
        assert sizes == [8 + 128 + 4, 1 + 4, 4 * 32 + 4]
        assert session.ot_state.extensions == 1
        assert result.comm["ot"] == sum(sizes)

    def test_modp2048_group_sane(self):
        # generator 2 has large order in the RFC group
        assert MODP_2048.prime.bit_length() == 2048
        assert MODP_2048.power(2, 10) == 1024

    def test_group_inverse(self):
        g = TEST_GROUP_512
        for x in (2, 12345, g.prime - 7):
            assert g.mul(x, g.inverse(x)) == 1


class TestOTExtension:
    def test_correctness_200_transfers(self):
        rng = random.Random(11)
        pairs = _pairs(200, rng)
        choices = [rng.randrange(2) for _ in range(200)]
        out, _ = chosen_ot(
            _plane(pairs), choices, state=IKNPState(TEST_GROUP_512, rng), rng=rng
        )
        assert out.shape == (200, 16)
        for msg, choice, pair in zip(out, choices, pairs):
            assert msg.tobytes() == pair[choice]

    def test_non_multiple_of_eight(self):
        rng = random.Random(12)
        pairs = _pairs(131, rng)
        choices = [rng.randrange(2) for _ in range(131)]
        out, _ = chosen_ot(
            _plane(pairs), choices, state=IKNPState(TEST_GROUP_512, rng), rng=rng
        )
        assert all(m.tobytes() == p[c] for m, c, p in zip(out, choices, pairs))

    def test_empty_batch(self):
        for pads in extension_ot(0, [], state=IKNPState(TEST_GROUP_512)):
            assert pads.m == 0 and pads.wire_bytes == 0
        out, transferred = chosen_ot(
            np.empty((0, 2, 16), dtype=np.uint8), [], state=IKNPState(TEST_GROUP_512)
        )
        assert out.shape == (0, 16) and transferred == 0

    def test_count_mismatch_rejected(self):
        with pytest.raises(OTError):
            chosen_ot(
                _plane([(bytes(16), bytes(16))]), [0, 1], state=IKNPState(TEST_GROUP_512)
            )
        with pytest.raises(OTError):
            extension_ot(3, [0, 1], state=IKNPState(TEST_GROUP_512))

    def test_traffic_scales_linearly(self):
        rng = random.Random(13)
        _, small = chosen_ot(
            _plane(_pairs(100, rng)), [0] * 100, state=IKNPState(TEST_GROUP_512, rng), rng=rng
        )
        _, large = chosen_ot(
            _plane(_pairs(400, rng)), [0] * 400, state=IKNPState(TEST_GROUP_512, rng), rng=rng
        )
        assert 3.0 <= large / small <= 5.0

    def test_messages_are_labels(self):
        """Phase 2 masks one 16-byte label per message: a plane of any
        other width is refused before a frame moves."""
        rng = random.Random(14)
        pairs = _pairs(140, rng, length=32)
        pads = extension_ot(140, [0] * 140, state=IKNPState(TEST_GROUP_512, rng))
        alice_end, _bob_end, stats = make_channel_pair()
        with pytest.raises(OTError, match=r"\(140, 2, 16\) uint8 plane"):
            derandomize(_plane(pairs), None, pads, (alice_end, None))
        assert stats.bytes_a_to_b + stats.bytes_b_to_a == 0
