"""Channel framing and byte-accounting tests."""

import random
import struct
import zlib

import numpy as np
import pytest

from repro.circuits import CircuitBuilder, simulate
from repro.errors import ChannelIntegrityError, ProtocolError
from repro.gc import TwoPartySession
from repro.gc.channel import Frame, make_channel_pair
from repro.gc.messages import ALICE_LABELS, Shape
from repro.gc.ot import TEST_GROUP_512
from repro.resilience import FaultPlan, FaultSpec, faulty_channel_factory
from repro.transport.wire import FrameDecoder, encode_frame


class TestFraming:
    def test_bytes_roundtrip(self):
        alice, bob, _ = make_channel_pair()
        alice.send_bytes(b"hello", tag="t")
        assert bob.recv_bytes() == b"hello"

    def test_labels_roundtrip(self):
        alice, bob, _ = make_channel_pair()
        labels = [0, 1, 2 ** 127, 2 ** 128 - 1]
        ALICE_LABELS.send_labels(alice, labels)
        rows = ALICE_LABELS.recv_rows(bob, Shape(n_alice=4))
        assert [int.from_bytes(row.tobytes(), "little") for row in rows] == labels

    def test_label_rows_are_read_only_sixteen_byte_rows(self):
        alice, bob, _ = make_channel_pair()
        ALICE_LABELS.send_labels(alice, [1, 2 ** 128 - 1])
        rows = ALICE_LABELS.recv_rows(bob, Shape(n_alice=2))
        assert rows.shape == (2, 16) and rows.dtype == np.uint8
        assert not rows.flags.writeable
        assert rows[0].tolist() == [1] + [0] * 15
        assert rows[1].tolist() == [255] * 16

    def test_label_payload_size_checked(self):
        alice, bob, _ = make_channel_pair()
        alice.send_bytes(struct.pack("<I", 3) + bytes(32), tag="alice_labels")
        with pytest.raises(ChannelIntegrityError, match="declares 3 entries"):
            ALICE_LABELS.recv_rows(bob, Shape(n_alice=2))
        alice.send_bytes(b"\x01", tag="alice_labels")
        with pytest.raises(ChannelIntegrityError, match="carries 1 bytes"):
            ALICE_LABELS.recv_rows(bob, Shape(n_alice=2))

    def test_duplex(self):
        alice, bob, _ = make_channel_pair()
        alice.send_bytes(b"ping")
        bob.send_bytes(b"pong")
        assert bob.recv_bytes() == b"ping"
        assert alice.recv_bytes() == b"pong"

    def test_empty_recv_rejected(self):
        alice, bob, _ = make_channel_pair()
        with pytest.raises(ProtocolError):
            bob.recv_bytes()


class TestAccounting:
    def test_directional_byte_counts(self):
        alice, bob, stats = make_channel_pair()
        alice.send_bytes(b"x" * 100, tag="tables")
        bob.send_bytes(b"y" * 30, tag="output")
        assert stats.bytes_a_to_b == 104  # + 4-byte length prefix
        assert stats.bytes_b_to_a == 34
        assert stats.bytes_a_to_b + stats.bytes_b_to_a == 138

    def test_by_tag_aggregation(self):
        alice, bob, stats = make_channel_pair()
        alice.send_bytes(b"a" * 10, tag="tables")
        alice.send_bytes(b"b" * 20, tag="tables")
        alice.send_bytes(b"c" * 5, tag="labels")
        agg = stats.by_tag()
        assert agg["tables"] == 38
        assert agg["labels"] == 9

    def test_label_payload_is_16_bytes_each(self):
        alice, bob, stats = make_channel_pair()
        ALICE_LABELS.send_labels(alice, [1, 2, 3])
        # 4 (count) + 3*16 (labels) + 4 (frame prefix)
        assert stats.by_tag()["alice_labels"] == 4 + 48 + 4
        assert ALICE_LABELS.wire_bytes(Shape(n_alice=3)) == 4 + 48 + 4


class TestChecksum:
    """The CRC runs only where a frame's bytes can change: the fault
    injector checksums the payload before it acts and the socket codec
    on encoding, while a plain in-memory frame — the sender's own
    immutable bytes — is never hashed."""

    @staticmethod
    def _counting_crc(monkeypatch):
        calls = []
        real = zlib.crc32

        def crc32(data, *args):
            calls.append(len(data))
            return real(data, *args)

        monkeypatch.setattr(zlib, "crc32", crc32)
        return calls

    def test_plain_memory_round_runs_no_crc(self, monkeypatch):
        bld = CircuitBuilder()
        a, b = bld.add_alice_inputs(3), bld.add_bob_inputs(3)
        for x, y in zip(a, b):
            bld.mark_output(bld.emit_and(x, y))
        circuit = bld.build()
        session = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(1),
            channel_factory=make_channel_pair,
        )
        calls = self._counting_crc(monkeypatch)
        result = session.run([1, 0, 1], [1, 1, 0])
        assert result.outputs == simulate(circuit, [1, 0, 1], [1, 1, 0])
        assert len(result.comm) >= 5  # every message of the round crossed
        assert calls == []

    def test_corrupt_fault_on_memory_transport_is_detected(self, monkeypatch):
        calls = self._counting_crc(monkeypatch)
        plan = FaultPlan([FaultSpec("corrupt", tag="tables")], seed=0)
        alice, bob, _ = faulty_channel_factory(plan, inner=make_channel_pair)()
        alice.send_bytes(b"payload-bytes", tag="tables")
        with pytest.raises(ChannelIntegrityError, match="checksum"):
            bob.recv_bytes(expected_tag="tables")
        assert plan.applied == [("corrupt", "tables", 0)]
        assert calls == [13, 13]  # the wrapper's, then recv's

    def test_socket_codec_checksums_an_unchecked_frame(self):
        frame = Frame(tag="tables", seq=0, payload=b"payload-bytes")
        (decoded,) = FrameDecoder().feed(encode_frame(frame))
        assert decoded.crc == zlib.crc32(b"payload-bytes")
        assert decoded.payload == frame.payload
