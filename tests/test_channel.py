"""Channel framing and byte-accounting tests."""

import struct

import numpy as np
import pytest

from repro.errors import ChannelIntegrityError, ProtocolError
from repro.gc.channel import make_channel_pair
from repro.gc.messages import ALICE_LABELS, Shape


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
