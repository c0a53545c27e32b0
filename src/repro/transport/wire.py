"""Length-prefixed wire codec for protocol :class:`~repro.gc.channel.Frame`\\ s.

One frame per wire record::

    magic(4) | tag_len(u8) | seq(u64) | crc(u32) | payload_len(u32) |
    tag(tag_len) | payload(payload_len)

All integers little-endian; the header is 21 bytes.  The CRC is the
frame's own when it carries one — the fault harness sets it before it
corrupts a payload, so the codec never recomputes a set CRC — and is
computed here otherwise, so a payload corrupted *before* encoding or
*on* the wire stays detectable by the channel's receive-side
validation.  No field exists for the fault harness: an injected
``delay`` is charged by the receiving end's
:class:`repro.resilience.FaultyChannel`, in the process that planned
it.

Malformed input — bad magic, a length prefix past the size caps, or a
record truncated mid-frame — raises the existing typed
:class:`repro.errors.ChannelIntegrityError`, never a struct error or
garbage frame.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Tuple

from ..errors import ChannelIntegrityError
from ..gc.channel import Frame

__all__ = [
    "HEADER_SIZE",
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "MAX_TAG_BYTES",
    "FrameDecoder",
    "encode_frame",
]

#: Wire-format magic + version ("RePro Frame v2").
MAGIC = b"RPF2"

#: Cap on the UTF-8 encoded tag ("tables", "ot", ...).
MAX_TAG_BYTES = 64

#: Cap on one frame's payload (64 MiB — far above any garbled-table
#: blob this reproduction ships, far below an allocation-bomb prefix).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("<4sBQII")

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
    crc = zlib.crc32(frame.payload) if frame.crc is None else frame.crc
    if not 0 <= crc < 2**32:
        raise ChannelIntegrityError(f"frame crc {crc:#x} not a u32")
    header = _HEADER.pack(
        MAGIC,
        len(tag_bytes),
        frame.seq,
        crc,
        len(frame.payload),
    )
    return header + tag_bytes + frame.payload


def _parse_header(header: bytes, max_payload: int) -> Tuple[int, int, int, int]:
    """Validate and unpack one frame header.

    Returns ``(tag_len, seq, crc, payload_len)``.

    Raises:
        ChannelIntegrityError: bad magic or a length prefix past the
            caps — the malformed-input contract of the codec.
    """
    magic, tag_len, seq, crc, payload_len = _HEADER.unpack(header)
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
    return tag_len, seq, crc, payload_len


class FrameDecoder:
    """Incremental decoder for a byte stream of wire frames.

    Feed it arbitrary chunks; it buffers partial records and yields
    every completed frame.  Header validation (magic, size caps) fires
    as soon as a header is complete, so a malformed stream fails fast
    instead of waiting for bytes that will never come.  A reader that
    shares its stream with other readers feeds at most :attr:`missing`
    bytes at a time: then no chunk crosses into the next frame.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES) -> None:
        self._buffer = bytearray()
        self._max_payload = max_payload
        #: bytes the frame being assembled still lacks: a header's worth
        #: between frames, the rest of the body once its header is in
        self.missing = HEADER_SIZE

    def feed(self, chunk: bytes) -> List[Frame]:
        """Absorb ``chunk`` and return every frame it completed.

        Raises:
            ChannelIntegrityError: the stream is malformed (bad magic,
                oversized length prefix).
        """
        self._buffer.extend(chunk)
        frames: List[Frame] = []
        while len(self._buffer) >= HEADER_SIZE:
            tag_len, seq, crc, payload_len = _parse_header(
                bytes(self._buffer[:HEADER_SIZE]), self._max_payload
            )
            total = HEADER_SIZE + tag_len + payload_len
            if len(self._buffer) < total:
                self.missing = total - len(self._buffer)
                return frames
            tag_bytes = bytes(self._buffer[HEADER_SIZE : HEADER_SIZE + tag_len])
            try:
                tag = tag_bytes.decode("utf-8")
            except UnicodeDecodeError:
                raise ChannelIntegrityError(
                    f"frame tag bytes {tag_bytes!r} are not valid UTF-8"
                ) from None
            payload = bytes(self._buffer[HEADER_SIZE + tag_len : total])
            del self._buffer[:total]
            frames.append(Frame(tag=tag, seq=seq, payload=payload, crc=crc))
        self.missing = HEADER_SIZE - len(self._buffer)
        return frames
