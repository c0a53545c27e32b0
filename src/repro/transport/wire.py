"""Length-prefixed wire codec for protocol :class:`~repro.gc.channel.Frame`\\ s.

One frame per wire record::

    magic(4) | tag_len(u8) | seq(u64) | crc(u32) | delay_s(f64) |
    payload_len(u32) | tag(tag_len) | payload(payload_len)

All integers little-endian.  The CRC is carried verbatim from the
in-memory frame — the codec never recomputes it, so a payload corrupted
*before* encoding (the fault harness) or *on* the wire stays detectable
by the channel's existing receive-side validation.  The virtual-delay
field rides along so injected ``delay`` faults charge the receiver's
deadline identically across transports.

Malformed input — bad magic, a length prefix past the size caps, or a
record truncated mid-frame — raises the existing typed
:class:`repro.errors.ChannelIntegrityError`, never a struct error or
garbage frame.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Callable, List, Tuple

from ..errors import ChannelIntegrityError
from ..gc.channel import Frame

__all__ = [
    "HEADER_SIZE",
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "MAX_TAG_BYTES",
    "FrameDecoder",
    "encode_frame",
    "read_frame",
]

#: Wire-format magic + version ("RePro Frame v1").
MAGIC = b"RPF1"

#: Cap on the UTF-8 encoded tag ("tables", "ot", ...).
MAX_TAG_BYTES = 64

#: Cap on one frame's payload (64 MiB — far above any garbled-table
#: blob this reproduction ships, far below an allocation-bomb prefix).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("<4sBQIdI")

#: Fixed byte length of the frame header.
HEADER_SIZE = _HEADER.size


def encode_frame(frame: Frame, max_payload: int = MAX_PAYLOAD_BYTES) -> bytes:
    """Serialize one frame for the wire.

    Raises:
        ChannelIntegrityError: the frame violates the wire format's own
            invariants (oversized tag/payload, out-of-range seq/crc) —
            refusing to emit an undecodable record.
    """
    tag_bytes = frame.tag.encode("utf-8")
    if not 0 < len(tag_bytes) <= MAX_TAG_BYTES:
        raise ChannelIntegrityError(
            f"frame tag {frame.tag!r} encodes to {len(tag_bytes)} bytes "
            f"(wire format allows 1..{MAX_TAG_BYTES})"
        )
    if len(frame.payload) > max_payload:
        raise ChannelIntegrityError(
            f"frame payload of {len(frame.payload)} bytes exceeds the "
            f"{max_payload}-byte wire cap (tag {frame.tag!r})"
        )
    if not 0 <= frame.seq < 2**64:
        raise ChannelIntegrityError(f"frame seq {frame.seq} not a u64")
    if not 0 <= frame.crc < 2**32:
        raise ChannelIntegrityError(f"frame crc {frame.crc:#x} not a u32")
    if not math.isfinite(frame.delay_s) or frame.delay_s < 0:
        raise ChannelIntegrityError(
            f"frame delay_s {frame.delay_s!r} must be finite and >= 0"
        )
    header = _HEADER.pack(
        MAGIC,
        len(tag_bytes),
        frame.seq,
        frame.crc,
        frame.delay_s,
        len(frame.payload),
    )
    return header + tag_bytes + frame.payload


def _parse_header(
    header: bytes, max_payload: int
) -> Tuple[int, int, int, float, int]:
    """Validate and unpack one frame header.

    Returns ``(tag_len, seq, crc, delay_s, payload_len)``.

    Raises:
        ChannelIntegrityError: bad magic or a length prefix past the
            caps — the malformed-input contract of the codec.
    """
    magic, tag_len, seq, crc, delay_s, payload_len = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ChannelIntegrityError(
            f"bad frame magic {magic!r} on the wire (expected {MAGIC!r}): "
            "peer speaks a different protocol or the stream lost sync"
        )
    if not 0 < tag_len <= MAX_TAG_BYTES:
        raise ChannelIntegrityError(
            f"frame tag length {tag_len} outside 1..{MAX_TAG_BYTES}"
        )
    if payload_len > max_payload:
        raise ChannelIntegrityError(
            f"frame length prefix declares {payload_len} payload bytes, "
            f"over the {max_payload}-byte cap — refusing the allocation"
        )
    if not math.isfinite(delay_s) or delay_s < 0:
        raise ChannelIntegrityError(
            f"frame delay field {delay_s!r} must be finite and >= 0"
        )
    return tag_len, seq, crc, delay_s, payload_len


def _decode_tag(tag_bytes: bytes) -> str:
    try:
        return tag_bytes.decode("utf-8")
    except UnicodeDecodeError:
        raise ChannelIntegrityError(
            f"frame tag bytes {tag_bytes!r} are not valid UTF-8"
        ) from None


class FrameDecoder:
    """Incremental decoder for a byte stream of wire frames.

    Feed it arbitrary chunks; it buffers partial records and yields
    every completed frame.  Header validation (magic, size caps) fires
    as soon as a header is complete, so a malformed stream fails fast
    instead of waiting for bytes that will never come.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES) -> None:
        self._buffer = bytearray()
        self._max_payload = max_payload

    def feed(self, chunk: bytes) -> List[Frame]:
        """Absorb ``chunk`` and return every frame it completed.

        Raises:
            ChannelIntegrityError: the stream is malformed (bad magic,
                oversized length prefix).
        """
        self._buffer.extend(chunk)
        frames: List[Frame] = []
        while len(self._buffer) >= HEADER_SIZE:
            tag_len, seq, crc, delay_s, payload_len = _parse_header(
                bytes(self._buffer[:HEADER_SIZE]), self._max_payload
            )
            total = HEADER_SIZE + tag_len + payload_len
            if len(self._buffer) < total:
                break
            tag = _decode_tag(bytes(self._buffer[HEADER_SIZE : HEADER_SIZE + tag_len]))
            payload = bytes(self._buffer[HEADER_SIZE + tag_len : total])
            del self._buffer[:total]
            frames.append(
                Frame(tag=tag, seq=seq, payload=payload, crc=crc, delay_s=delay_s)
            )
        return frames


def read_frame(
    read_exact: Callable[[int], bytes], max_payload: int = MAX_PAYLOAD_BYTES
) -> Frame:
    """Read exactly one frame through a blocking ``read_exact(n)`` callable.

    Reads the fixed header first, then exactly the declared body — never
    a byte more, so control records and protocol frames can share one
    socket in a turn-based protocol without a shared stream decoder.

    Raises:
        ChannelIntegrityError: malformed header.
        ChannelClosedError: ``read_exact`` signalled EOF (it raises this
            itself; documented here for the call chain).
    """
    tag_len, seq, crc, delay_s, payload_len = _parse_header(
        read_exact(HEADER_SIZE), max_payload
    )
    tag = _decode_tag(read_exact(tag_len))
    payload = read_exact(payload_len) if payload_len else b""
    return Frame(tag=tag, seq=seq, payload=payload, crc=crc, delay_s=delay_s)


def checksummed(tag: str, payload: bytes, seq: int = 0) -> Frame:
    """A frame with a fresh CRC — for control records outside a Channel."""
    return Frame(tag=tag, seq=seq, payload=payload, crc=zlib.crc32(payload))
