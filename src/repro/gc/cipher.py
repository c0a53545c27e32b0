"""Garbling oracles: the tweakable hash ``H(label, tweak)``.

Half-gates garbling (Zahur, Rosulek, Evans) is secure when ``H`` is a
*tweakable circular-correlation-robust* hash: outputs must look random
even when the inputs are related by the garbler's secret free-XOR offset
``delta`` and that same ``delta`` is what the outputs mask, and every
gate gets fresh tweaks.  The paper garbles with a *fixed-key block
cipher* because CPUs have AES units (Bellare et al., "Efficient garbling
from a fixed-key blockcipher" — JustGarble, the engine TinyGarble and
DeepSecure build on), and so does this module:

* :class:`FixedKeyAES` — the default.  The JustGarble instantiation
  ``H(X, T) = pi(2X ^ T) ^ (2X ^ T)`` with ``pi`` = AES-128 under a
  fixed public key and ``2X`` doubling in GF(2^128).  ``pi`` runs in the
  system libcrypto (one ``EVP_EncryptUpdate`` per level, AES-NI where
  the CPU has it), reached through :mod:`ctypes`; where no libcrypto
  loads, a NumPy table implementation computes the *same* permutation,
  so the oracle — and every garbled byte — is the same on every host
  and only its speed differs.
* :class:`HashKDF` — ``SHA256(label || tweak)[:16]`` in the random-oracle
  model, one ``hashlib`` call per row; the explicit
  ``kdf_backend="hashlib"`` choice.

The oracle is part of the wire contract: SHA and AES tables differ byte
for byte, so garbler and evaluator must name the same one
(:func:`oracle_fingerprint` is what worker control records compare).  It
is chosen explicitly in :class:`repro.engine.EngineConfig` and never
picked per host by calibration.

Why libcrypto through ``ctypes`` and not the ``cryptography`` package:
``_hashlib`` has already mapped the system ``libcrypto`` into every
Python process, so binding ``EVP_aes_128_ecb`` in it costs +1.7 MB of
resident memory and no new dependency, while importing ``cryptography``
maps its own statically linked OpenSSL for +7.8 MB per process (15 % of
a folded-session process) at the same speed per batch.

Both oracles hash a 128-bit label plus a 64-bit gate tweak to a 128-bit
mask.  Labels are Python ints on the scalar paths (XOR on ints is fast
and constant-free) and, on the batch path (``hash_many(rows, tweaks)``),
``(n, 2)`` little-endian 64-bit label words beside ``(n,)`` tweak words.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import _libcrypto

__all__ = [
    "LABEL_BITS",
    "LABEL_MASK",
    "HashKDF",
    "VectorHashKDF",
    "AutoHashKDF",
    "FixedKeyAES",
    "ParallelKDF",
    "KDF_BACKENDS",
    "KDFCalibration",
    "calibrate_kdf",
    "kdf_calibration",
    "make_kdf",
    "default_kdf",
    "oracle_fingerprint",
]

LABEL_BITS = 128
LABEL_MASK = (1 << LABEL_BITS) - 1

#: Bytes per SHA-256 oracle input: 16-byte label || 8-byte tweak
#: (little-endian).
ROW_BYTES = 24


def _sha_inputs(rows: "np.ndarray", tweaks: "np.ndarray") -> "np.ndarray":
    """The SHA-256 oracle's inputs ``label || tweak`` as ``(n, 24)``
    uint8 rows, from ``(n, 2)`` label words and ``(n,)`` tweak words."""
    words = np.empty((rows.shape[0], 3), dtype="<u8")
    words[:, :2] = rows
    words[:, 2] = tweaks
    return words.view(np.uint8)


def _hash_many_fallback(
    kdf: "HashKDF", rows: "np.ndarray", tweaks: "np.ndarray"
) -> "np.ndarray":
    """Row-by-row :meth:`hash` over ``(n, 2)`` label words and their
    tweaks, as ``(n, 2)`` mask words.

    Generic bridge for oracles without a native batch path (custom KDFs
    that only define ``hash``); bit-identical to calling ``hash`` per
    gate.
    """
    masks = b"".join(
        kdf.hash(lo | hi << 64, tweak).to_bytes(16, "little")
        for (lo, hi), tweak in zip(rows.tolist(), tweaks.tolist())
    )
    return np.frombuffer(masks, dtype="<u8").reshape(-1, 2)


def _hash_pair_by_hash(kdf: Any, a: int, b: int, tweak: int) -> Tuple[int, int]:
    """One gate's evaluator hashes: ``H(a, tweak), H(b, tweak + 1)``.

    The gate-granular form of ``hash`` for the narrow-level loops: a
    half-gates AND gate spends its two consecutive tweaks on its left
    and right input labels, and those hashes are independent, so an
    oracle with a per-call cost (:class:`FixedKeyAES`) pays it once per
    gate.  This is the plain loop over ``kdf.hash``.
    """
    return kdf.hash(a, tweak), kdf.hash(b, tweak + 1)


def _hash_quad_by_hash(
    kdf: Any, a0: int, a1: int, b0: int, b1: int, tweak: int
) -> Tuple[int, int, int, int]:
    """One gate's garbler hashes: both left-input labels under
    ``tweak``, both right-input labels under ``tweak + 1``."""
    hash_one = kdf.hash
    return (
        hash_one(a0, tweak),
        hash_one(a1, tweak),
        hash_one(b0, tweak + 1),
        hash_one(b1, tweak + 1),
    )


class HashKDF:
    """SHA-256 based garbling oracle (``kdf_backend="hashlib"``).

    ``H(label, tweak) = SHA256(label || tweak)[:16]`` — modelled as a
    random oracle, standard for honest-but-curious garbling.  One
    ``hashlib`` call per row; the explicit alternative to the default
    :class:`FixedKeyAES`, and the faster of the two on a host where no
    libcrypto loads.
    """

    name = "sha256"

    def hash(self, label: int, tweak: int) -> int:
        """Derive a 128-bit mask from a wire label and a gate tweak."""
        data = label.to_bytes(16, "little") + tweak.to_bytes(8, "little")
        return int.from_bytes(hashlib.sha256(data).digest()[:16], "little")

    # the gate-granular calls, as the plain loop over :meth:`hash`
    hash_pair = _hash_pair_by_hash
    hash_quad = _hash_quad_by_hash

    def hash_many(self, rows: "np.ndarray", tweaks: "np.ndarray") -> "np.ndarray":
        """Batched oracle: row ``i`` hashed under ``tweaks[i]``.

        Args:
            rows: ``(n, 2)`` ``<u8`` label words (low word first).
            tweaks: ``(n,)`` ``<u8`` tweak words.

        Returns:
            ``(n, 2)`` ``<u8`` mask words, row-for-row identical to
            :meth:`hash` on the same (label, tweak) pairs.  The SHA-256
            inputs ``label || tweak`` are built here, as one buffer: the
            per-gate int<->bytes conversions of the scalar path
            disappear, which is where the level-scheduled engine gets
            its KDF throughput.
        """
        if type(self).hash is not HashKDF.hash:
            # a subclass overrode the oracle but not the batch path:
            # route through its hash() so the two stay consistent (the
            # hybrid engine mixes batched and per-gate calls)
            return _hash_many_fallback(self, rows, tweaks)
        buf = memoryview(_sha_inputs(rows, tweaks).tobytes())
        sha = hashlib.sha256
        digests = b"".join(
            [sha(buf[i : i + ROW_BYTES]).digest()
             for i in range(0, len(buf), ROW_BYTES)]
        )
        # keep the full 32-byte digests contiguous and let NumPy view the
        # first 16 bytes of each — one slice instead of one per row
        return np.frombuffer(digests, dtype="<u8").reshape(-1, 4)[:, :2]


class VectorHashKDF(HashKDF):
    """SHA-256 oracle with a block-parallel NumPy batch path.

    Identical oracle to :class:`HashKDF` — same ``hash``, and
    ``hash_many`` produces byte-for-byte the same masks — but batches at
    or above :attr:`min_width` rows run through
    :func:`repro.gc.sha256_vec.sha256_many`, which hashes all rows as
    uint32 lane arithmetic in one pass.  Narrow batches (fused/narrow
    levels) keep the hashlib loop, which wins below the crossover where
    per-ufunc overhead dominates.

    Because the kernel computes the identical digests, swapping this
    backend in (or letting :func:`calibrate_kdf` pick it) never changes
    a garbled table, label or decode bit.

    Two very different hosts motivate the split:

    * with SHA-NI (hashlib one-shots ~0.6us, nearly all interpreter
      overhead) the single-threaded kernel roughly ties the loop, and
      wins only via :class:`ParallelKDF` chunk-splitting — NumPy
      releases the GIL inside every ufunc, so the kernel scales across
      cores where the sub-2KiB hashlib loop cannot;
    * without SHA-NI (one-shots ~2-4us) the kernel wins outright at a
      few hundred rows.

    ``calibrate_kdf()`` measures which host this is instead of guessing.

    Args:
        min_width: smallest batch the NumPy kernel takes; smaller
            batches fall back to the hashlib loop.  ``0`` sends
            everything through the kernel.
    """

    name = "sha256-vec"

    #: Fallback crossover when constructed without calibration.
    DEFAULT_MIN_WIDTH = 1024

    def __init__(self, min_width: Optional[int] = None) -> None:
        self.min_width = (
            self.DEFAULT_MIN_WIDTH if min_width is None else max(0, min_width)
        )

    def hash_many(self, rows: "np.ndarray", tweaks: "np.ndarray") -> "np.ndarray":
        """:meth:`HashKDF.hash_many`, through the NumPy kernel from
        :attr:`min_width` rows on."""
        # the kernel computes SHA-256 digests; if a subclass redefined
        # the scalar oracle, wide and narrow batches would silently use
        # *different* oracles — defer to the base class, whose override
        # guard routes everything through the subclass's hash()
        if (
            rows.shape[0] >= max(self.min_width, 1)
            and type(self).hash is HashKDF.hash
        ):
            from .sha256_vec import sha256_many

            digests = sha256_many(_sha_inputs(rows, tweaks), out_len=16)
            return np.ascontiguousarray(digests).view("<u8")
        return super().hash_many(rows, tweaks)


# ---------------------------------------------------------------------------
# pure-Python AES-128 (fixed key), for the JustGarble-style oracle
# ---------------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


#: Table forms of the S-box and GF(2^8) doubling for the batched path.
_SBOX_NP = np.array(_SBOX, dtype=np.uint8)
_XTIME_NP = np.array([_xtime(i) for i in range(256)], dtype=np.uint8)


def _expand_key(key: bytes) -> List[List[int]]:
    """FIPS-197 key schedule for AES-128; returns 11 round keys."""
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [sum(words[4 * r : 4 * r + 4], []) for r in range(11)]


# ---------------------------------------------------------------------------
# native provider: AES-128-ECB in the system libcrypto, through ctypes
# ---------------------------------------------------------------------------

#: Most bytes handed to one ``EVP_EncryptUpdate`` (its length is a C int).
_EVP_MAX_BYTES = 1 << 30


def _bind_evp(lib: ctypes.CDLL) -> None:
    """Declare the EVP prototypes used here and key a throw-away context.

    Raises if a symbol is missing or the cipher is refused: a library
    that loads but does not offer AES-128-ECB counts as not offering EVP.
    """
    void_p, c_int = ctypes.c_void_p, ctypes.c_int
    lib.EVP_CIPHER_CTX_new.argtypes = []
    lib.EVP_CIPHER_CTX_new.restype = void_p
    lib.EVP_CIPHER_CTX_free.argtypes = [void_p]
    lib.EVP_CIPHER_CTX_free.restype = None
    lib.EVP_aes_128_ecb.argtypes = []
    lib.EVP_aes_128_ecb.restype = void_p
    lib.EVP_EncryptInit_ex.argtypes = [
        void_p, void_p, void_p, ctypes.c_char_p, void_p
    ]
    lib.EVP_EncryptInit_ex.restype = c_int
    lib.EVP_CIPHER_CTX_set_padding.argtypes = [void_p, c_int]
    lib.EVP_CIPHER_CTX_set_padding.restype = c_int
    # in/out as addresses: the same prototype takes a bytes object, a
    # ctypes buffer's address and a NumPy array's data pointer
    lib.EVP_EncryptUpdate.argtypes = [void_p, void_p, void_p, void_p, c_int]
    lib.EVP_EncryptUpdate.restype = c_int
    _EvpContext(lib, bytes(16))


def _load_libcrypto() -> Optional[ctypes.CDLL]:
    """The process's libcrypto, or None when none offers EVP AES-128-ECB."""
    return _libcrypto.load(_bind_evp)


class _EvpContext(_libcrypto.Owned):
    """One owned ``EVP_CIPHER_CTX`` keyed for AES-128-ECB, padding off."""

    def __init__(self, lib: ctypes.CDLL, key: bytes) -> None:
        super().__init__(lib.EVP_CIPHER_CTX_new(), lib.EVP_CIPHER_CTX_free)
        if (
            lib.EVP_EncryptInit_ex(
                self.ptr, lib.EVP_aes_128_ecb(), None, key, None
            ) != 1
            or lib.EVP_CIPHER_CTX_set_padding(self.ptr, 0) != 1
        ):
            raise RuntimeError("libcrypto refused AES-128-ECB")


class _EcbThreadState(threading.local):
    """Per-thread cipher context and scratch for :class:`FixedKeyAES`.

    ``ctypes`` drops the GIL around every foreign call, so two threads
    can be inside ``EVP_EncryptUpdate`` at once; a context, its ``outl``
    and the output scratch therefore belong to one thread each
    (``threading.local`` runs this ``__init__`` on a thread's first
    touch).  A forked child inherits the forking thread's state as
    plain copied memory, which is all an ECB context is.
    """

    def __init__(self, lib: ctypes.CDLL, key: bytes) -> None:
        self.ctx = _EvpContext(lib, key)  # owners of what ``call`` points at
        self.outl = ctypes.c_int(0)
        out = ctypes.create_string_buffer(64)  # one gate: 4 blocks
        #: ``(update, ctx, out, &out, &outl)`` — everything one cipher
        #: call needs, behind a single thread-local attribute read
        self.call = (
            lib.EVP_EncryptUpdate,
            self.ctx.ptr,
            out,
            ctypes.addressof(out),
            ctypes.addressof(self.outl),
        )


_M128 = (1 << 128) - 1
#: GF(2^128) doubling's reduction word: a carry out of bit 127 folds back
#: into the low word as 0x87
_REDUCE = np.uint64(0x87)
#: Lane constants of the packed 2- and 4-block gate calls: bit 127 of
#: every lane, a one in every lane, a one in the upper half's lanes.
_HI2 = (1 << 127) | (1 << 255)
_ONES2 = 1 | (1 << 128)
_UPPER2 = 1 << 128
_HI4 = _HI2 | (_HI2 << 256)
_ONES4 = _ONES2 | (_ONES2 << 256)
_UPPER4 = (1 << 256) | (1 << 384)


class FixedKeyAES:
    """Fixed-key AES-128 garbling oracle (JustGarble construction).

    ``H(X, T) = pi(K) ^ K`` with ``K = 2X ^ T``: ``pi`` is AES-128 under
    a fixed public key — modelled as a random permutation — ``2X`` is
    doubling in GF(2^128), ``T`` the gate tweak.  This is the
    instantiation of JustGarble (Bellare, Hoang, Keelveedhi, Rogaway)
    the paper's engine builds on; the property half-gates needs from it
    is *tweakable circular correlation robustness*: ``H(X ^ delta, T)``
    stays unpredictable for a secret ``delta`` the outputs themselves
    mask, for any number of distinct tweaks.

    One construction, three entry points — :meth:`hash_many` (a level),
    :meth:`hash_pair` / :meth:`hash_quad` (a gate) and :meth:`hash` (a
    block) — all row-for-row identical.  ``pi`` runs in libcrypto when
    one loads (:attr:`provider` ``"libcrypto"``) and in NumPy tables
    otherwise (``"numpy"``, slower than :class:`HashKDF`); both compute
    AES, so tables are byte-identical across providers and peers on
    different hosts interoperate.  :meth:`encrypt_block` /
    :meth:`encrypt_blocks` stay as the FIPS-197 parity oracle.

    Instances are safe to share between threads and across ``fork``.
    """

    name = "fixed-key-aes"

    def __init__(self, key: bytes = b"DeepSecure-fixed") -> None:
        if len(key) != 16:
            raise ValueError("AES-128 key must be 16 bytes")
        self._round_keys = _expand_key(key)
        # (11, 4, 4) round-key matrices in state layout (row r, column c
        # holds key byte 4c + r) for the batched encryptor
        self._round_keys_np = np.array(
            [
                [[rk[4 * c + r] for c in range(4)] for r in range(4)]
                for rk in self._round_keys
            ],
            dtype=np.uint8,
        )
        lib = _load_libcrypto()
        self._native = _EcbThreadState(lib, key) if lib is not None else None
        if lib is None:
            warnings.warn(
                "no libcrypto with EVP AES-128-ECB could be loaded: the "
                "fixed-key-AES oracle falls back to its NumPy tables "
                "(same tables, much slower); kdf_backend=\"hashlib\" is "
                "the faster explicit choice on this host",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def provider(self) -> str:
        """Where ``pi`` runs: ``"libcrypto"`` or ``"numpy"``."""
        return "libcrypto" if self._native is not None else "numpy"

    def _ecb_encrypt(self, blocks: "np.ndarray") -> "np.ndarray":
        """``pi`` over an array of whole 16-byte blocks.

        The one seam between the construction and its provider: one
        ``EVP_EncryptUpdate`` straight between the arrays' buffers (no
        ``tobytes`` copy; a strided view is made contiguous first), or
        :meth:`encrypt_blocks`.  Returns a C-contiguous array of the
        input's shape and dtype.
        """
        blocks = np.ascontiguousarray(blocks)
        if self._native is None:
            flat = blocks.view(np.uint8).reshape(-1, 16)
            return self.encrypt_blocks(flat).view(blocks.dtype).reshape(
                blocks.shape
            )
        out = np.empty_like(blocks)
        update, ctx, _, _, outl = self._native.call
        src, dst = blocks.ctypes.data, out.ctypes.data
        for offset in range(0, blocks.nbytes, _EVP_MAX_BYTES):
            size = min(_EVP_MAX_BYTES, blocks.nbytes - offset)
            if update(ctx, dst + offset, outl, src + offset, size) != 1:
                raise RuntimeError("EVP_EncryptUpdate failed")
        return out

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (column-major AES state)."""
        state = [
            [block[r + 4 * c] for c in range(4)] for r in range(4)
        ]
        self._add_round_key(state, 0)
        for rnd in range(1, 10):
            self._sub_shift(state)
            self._mix_columns(state)
            self._add_round_key(state, rnd)
        self._sub_shift(state)
        self._add_round_key(state, 10)
        return bytes(state[r][c] for c in range(4) for r in range(4))

    def _add_round_key(self, state: List[List[int]], rnd: int) -> None:
        rk = self._round_keys[rnd]
        for c in range(4):
            for r in range(4):
                state[r][c] ^= rk[4 * c + r]

    @staticmethod
    def _sub_shift(state: List[List[int]]) -> None:
        for r in range(4):
            row = [_SBOX[b] for b in state[r]]
            state[r] = row[r:] + row[:r]

    @staticmethod
    def _mix_columns(state: List[List[int]]) -> None:
        for c in range(4):
            a = [state[r][c] for r in range(4)]
            state[0][c] = _xtime(a[0]) ^ _xtime(a[1]) ^ a[1] ^ a[2] ^ a[3]
            state[1][c] = a[0] ^ _xtime(a[1]) ^ _xtime(a[2]) ^ a[2] ^ a[3]
            state[2][c] = a[0] ^ a[1] ^ _xtime(a[2]) ^ _xtime(a[3]) ^ a[3]
            state[3][c] = _xtime(a[0]) ^ a[0] ^ a[1] ^ a[2] ^ _xtime(a[3])

    @staticmethod
    def _double(x: int) -> int:
        """Doubling in GF(2^128) with the standard reduction polynomial."""
        x <<= 1
        if x >> 128:
            x ^= (1 << 128) | 0x87
        return x & LABEL_MASK

    def hash(self, label: int, tweak: int) -> int:
        """JustGarble-style ``H(X, T) = pi(2X ^ T) ^ (2X ^ T)``."""
        k = self._double(label) ^ tweak
        block = k.to_bytes(16, "little")
        if self._native is None:
            return int.from_bytes(self.encrypt_block(block), "little") ^ k
        update, ctx, out, out_addr, outl = self._native.call
        if update(ctx, out_addr, outl, block, 16) != 1:
            raise RuntimeError("EVP_EncryptUpdate failed")
        return (int.from_bytes(out.raw, "little") ^ k) & _M128

    def hash_pair(self, a: int, b: int, tweak: int) -> Tuple[int, int]:
        """``H(a, tweak), H(b, tweak + 1)`` in one cipher call.

        The two blocks ride in one 256-bit int: doubling, tweak XOR and
        the final ``^ K`` are done on both lanes at once, so a gate
        costs one foreign call instead of one per hash.
        """
        if self._native is None:
            return _hash_pair_by_hash(self, a, b, tweak)
        x = a | b << 128
        hi = x & _HI2
        k = ((x ^ hi) << 1) ^ (hi >> 127) * 0x87 ^ (tweak * _ONES2 + _UPPER2)
        update, ctx, out, out_addr, outl = self._native.call
        if update(ctx, out_addr, outl, k.to_bytes(32, "little"), 32) != 1:
            raise RuntimeError("EVP_EncryptUpdate failed")
        # the scratch is four blocks wide: lanes 2-3 hold stale bytes
        h = int.from_bytes(out.raw, "little") ^ k
        return h & _M128, (h >> 128) & _M128

    def hash_quad(
        self, a0: int, a1: int, b0: int, b1: int, tweak: int
    ) -> Tuple[int, int, int, int]:
        """The garbler's four half-gate hashes in one cipher call:
        ``a0, a1`` under ``tweak``, ``b0, b1`` under ``tweak + 1``."""
        if self._native is None:
            return _hash_quad_by_hash(self, a0, a1, b0, b1, tweak)
        x = a0 | a1 << 128 | b0 << 256 | b1 << 384
        hi = x & _HI4
        k = ((x ^ hi) << 1) ^ (hi >> 127) * 0x87 ^ (tweak * _ONES4 + _UPPER4)
        update, ctx, out, out_addr, outl = self._native.call
        if update(ctx, out_addr, outl, k.to_bytes(64, "little"), 64) != 1:
            raise RuntimeError("EVP_EncryptUpdate failed")
        h = int.from_bytes(out.raw, "little") ^ k
        return h & _M128, (h >> 128) & _M128, (h >> 256) & _M128, h >> 384

    def encrypt_blocks(self, blocks: "np.ndarray") -> "np.ndarray":
        """Encrypt ``(n, 16)`` uint8 blocks at once (NumPy AES rounds).

        Byte-identical to :meth:`encrypt_block` per row: S-box and xtime
        become table lookups over the whole batch, ShiftRows a row roll,
        MixColumns four broadcast XOR chains — the per-block Python
        interpreter loop of the scalar path disappears.
        """
        # state[:, r, c] = blocks[:, r + 4c] (column-major AES state)
        state = blocks.reshape(-1, 4, 4).transpose(0, 2, 1)
        rks = self._round_keys_np
        state = state ^ rks[0]
        for rnd in range(1, 10):
            state = _SBOX_NP[state]
            for r in range(1, 4):
                state[:, r] = np.roll(state[:, r], -r, axis=-1)
            a0, a1, a2, a3 = (state[:, r] for r in range(4))
            x0, x1, x2, x3 = _XTIME_NP[a0], _XTIME_NP[a1], _XTIME_NP[a2], _XTIME_NP[a3]
            state = np.stack(
                [
                    x0 ^ x1 ^ a1 ^ a2 ^ a3,
                    a0 ^ x1 ^ x2 ^ a2 ^ a3,
                    a0 ^ a1 ^ x2 ^ x3 ^ a3,
                    x0 ^ a0 ^ a1 ^ a2 ^ x3,
                ],
                axis=1,
            )
            state ^= rks[rnd]
        state = _SBOX_NP[state]
        for r in range(1, 4):
            state[:, r] = np.roll(state[:, r], -r, axis=-1)
        state ^= rks[10]
        return np.ascontiguousarray(state.transpose(0, 2, 1)).reshape(-1, 16)

    def hash_many(self, rows: "np.ndarray", tweaks: "np.ndarray") -> "np.ndarray":
        """Batched JustGarble oracle: row ``i`` hashed under ``tweaks[i]``.

        The whole level in one cipher call over ``(n, 2)`` ``<u8`` label
        words (low word first) and ``(n,)`` ``<u8`` tweak words, so
        GF(2^128) doubling and the tweak XOR are a handful of uint64
        operations per level.  Returns ``(n, 2)`` ``<u8`` mask words,
        row-for-row identical to :meth:`hash`.
        """
        # K = 2X ^ T: shift both words left one bit at once, then carry
        # the low word's top bit into the high word, fold a carry out of
        # bit 127 back as 0x87 and XOR the tweak into the low word
        carry = rows >> 63
        k = rows << 1
        k[:, 1] |= carry[:, 0]
        k[:, 0] ^= carry[:, 1] * _REDUCE ^ tweaks
        out = self._ecb_encrypt(k)
        out ^= k
        return out

    def tccr_many(self, blocks: "np.ndarray", tweaks: "np.ndarray") -> "np.ndarray":
        """``pi(pi(x) ^ T) ^ pi(x)`` for every 16-byte block ``x`` (the
        last axis of a uint8 array) and its tweak block ``T``: the tweakable
        circular-correlation-robust hash of Guo, Katz, Wang and Yu
        ("Efficient and Secure Multiparty Computation from Fixed-Key
        Block Ciphers", S&P 2020) — two cipher calls for the whole batch.
        ``tweaks`` may be any shape that broadcasts against ``blocks``.
        """
        if blocks.shape[-1:] != (16,):
            raise ValueError("tccr_many hashes whole 16-byte blocks")
        pi_x = self._ecb_encrypt(np.ascontiguousarray(blocks, dtype=np.uint8))
        out = self._ecb_encrypt(pi_x ^ tweaks)
        out ^= pi_x
        return out


class ParallelKDF:
    """Thread-split wrapper around any garbling oracle's batch path.

    ``hash_many`` fans contiguous row blocks out to a worker pool and
    concatenates the results in order, so the output is identical for
    every worker count (including 1) — the batched oracle is a pure
    per-row function.  Per-gate ``hash`` calls (narrow levels, the
    scalar engine) delegate to the wrapped oracle unchanged, keeping the
    hybrid engine's mixed batched/scalar calls consistent.

    No configuration builds it: one fixed-key-AES call costs tens of
    microseconds, less than a thread hop, and splitting measured 0.89x on
    a cold request.  Construct it directly to split a wide batch.

    Args:
        kdf: the oracle to wrap (default: :class:`HashKDF`).
        workers: worker-thread count; ``0`` selects ``os.cpu_count()``.
        min_rows_per_worker: below this many rows per worker the batch
            runs inline — tiny levels are cheaper than a thread hop.
    """

    def __init__(
        self,
        kdf: Optional[object] = None,
        workers: int = 0,
        min_rows_per_worker: int = 256,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.inner = kdf if kdf is not None else HashKDF()
        self.workers = workers or (os.cpu_count() or 1)
        self.min_rows_per_worker = max(1, min_rows_per_worker)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"parallel-{getattr(self.inner, 'name', 'kdf')}"

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="kdf-worker",
                )
            return self._pool

    def hash(self, label: int, tweak: int) -> int:
        """Per-gate oracle call (delegates; never parallel)."""
        return self.inner.hash(label, tweak)

    def hash_pair(self, a: int, b: int, tweak: int) -> Tuple[int, int]:
        """Gate-granular evaluator call (delegates; never parallel)."""
        return self.inner.hash_pair(a, b, tweak)

    def hash_quad(
        self, a0: int, a1: int, b0: int, b1: int, tweak: int
    ) -> Tuple[int, int, int, int]:
        """Gate-granular garbler call (delegates; never parallel)."""
        return self.inner.hash_quad(a0, a1, b0, b1, tweak)

    def hash_many(self, rows: "np.ndarray", tweaks: "np.ndarray") -> "np.ndarray":
        """Batched oracle, row blocks (and their tweaks) split across
        the worker pool.

        The split width is governed only by ``min_rows_per_worker``; a
        width-gated inner oracle (:class:`VectorHashKDF`) makes its own
        per-chunk kernel-vs-loop choice, so its ``min_width`` must be
        calibrated as a *chunk* crossover (see :class:`AutoHashKDF`).
        Chunks that land below it simply run the hashlib loop inside
        the workers — GIL-serialized, i.e. parity with not splitting,
        never a regression.
        """
        n = rows.shape[0]
        n_splits = min(self.workers, max(1, n // self.min_rows_per_worker))
        if n_splits <= 1:
            return self.inner.hash_many(rows, tweaks)
        results = self._ensure_pool().map(
            self.inner.hash_many,
            np.array_split(rows, n_splits),
            np.array_split(tweaks, n_splits),
        )
        return np.concatenate(list(results))

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None


# ---------------------------------------------------------------------------
# oracle registry + one-shot autotuner
# ---------------------------------------------------------------------------

#: Constructable garbling-oracle backends, keyed by config-facing name:
#: one per oracle.  ``fixed_key_aes`` is the default, the JustGarble
#: fixed-key-cipher oracle; ``hashlib`` is the SHA-256 oracle — a
#: different oracle, so its tables differ by construction (results still
#: agree end to end).  ``VectorHashKDF`` and ``AutoHashKDF`` compute the
#: SHA oracle too and are constructed by class, never by name.
KDF_BACKENDS: Dict[str, type] = {
    "hashlib": HashKDF,
    "fixed_key_aes": FixedKeyAES,
}

#: Widths the calibrator samples.  They bracket what the engine emits:
#: fused/narrow levels (hundreds of rows), mid-size levels, and one
#: wide level of the demo DL netlist (~4k).  Nothing larger is sampled
#: because the kernel processes bigger batches in
#: :data:`repro.gc.sha256_vec.CHUNK_ROWS`-sized chunks anyway, so 4096
#: already characterizes every super-batch.
CALIBRATION_WIDTHS: Tuple[int, ...] = (256, 1024, 4096)


@dataclasses.dataclass(frozen=True)
class KDFCalibration:
    """Measured ``hash_many`` throughput per backend per batch width.

    Attributes:
        widths: sampled batch widths (rows per call).
        rows_per_s: backend name -> {width: measured rows/second}.
        crossover_width: smallest sampled width from which the NumPy
            kernel beats the hashlib loop at every larger sampled width,
            or ``None`` when the loop wins everywhere (typical for
            single-core hosts whose OpenSSL has SHA-NI).
        host_cores: ``os.cpu_count()`` at calibration time.
        elapsed_s: wall time the calibration run took.
    """

    widths: Tuple[int, ...]
    rows_per_s: Dict[str, Dict[int, float]]
    crossover_width: Optional[int]
    host_cores: int
    elapsed_s: float

    def best_sha_backend(self, width: int) -> str:
        """``"hashlib"`` or ``"sha256_vec"`` — fastest at ``width``."""
        if self.crossover_width is not None and width >= self.crossover_width:
            return "sha256_vec"
        return "hashlib"

    def crossover_for_scale(self, scale: float = 1.0) -> Optional[int]:
        """The hashlib->kernel crossover when the kernel runs on
        ``scale`` effective cores.

        The hashlib loop holds the GIL for its sub-2KiB digests, so
        extra workers never speed it up; the NumPy kernel releases the
        GIL inside every ufunc, so :class:`ParallelKDF` chunk-splitting
        scales it roughly linearly.  Multiplying the kernel's measured
        single-thread throughput by ``scale`` models that split without
        a second (multi-threaded) calibration pass.  With ``scale > 1``
        the result is a *per-chunk* crossover: each of the ``scale``
        concurrent chunks should take the kernel from this width up.

        Returns:
            Smallest sampled width from which ``sha256_vec * scale``
            beats ``hashlib`` at every larger sampled width, or None.
        """
        vec = self.rows_per_s["sha256_vec"]
        loop = self.rows_per_s["hashlib"]
        for i, width in enumerate(self.widths):
            if all(
                vec[w] * scale >= loop[w] for w in self.widths[i:]
            ):
                return width
        return None

    def speedup(self, backend: str, width: int) -> float:
        """Throughput of ``backend`` relative to the hashlib loop."""
        base = self.rows_per_s["hashlib"].get(width)
        other = self.rows_per_s.get(backend, {}).get(width)
        if not base or not other:
            return float("nan")
        return other / base

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (benchmark reports, CI artifacts)."""
        return {
            "widths": list(self.widths),
            "rows_per_s": {
                name: {str(w): round(v, 1) for w, v in per.items()}
                for name, per in self.rows_per_s.items()
            },
            "crossover_width": self.crossover_width,
            "host_cores": self.host_cores,
            "elapsed_s": round(self.elapsed_s, 4),
        }


def _bench_hash_many(
    kdf: "HashKDF", rows: "np.ndarray", tweaks: "np.ndarray", repeats: int
) -> float:
    """Best-of-``repeats`` rows/second for one oracle at one width."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kdf.hash_many(rows, tweaks)
        best = min(best, time.perf_counter() - start)
    return rows.shape[0] / best if best > 0 else float("inf")


def calibrate_kdf(
    widths: Tuple[int, ...] = CALIBRATION_WIDTHS,
    repeats: int = 3,
    include_aes: bool = False,
) -> KDFCalibration:
    """One-shot microbenchmark of every oracle backend on this host.

    Hashes random label and tweak batches through each backend's
    ``hash_many`` at each width and derives the hashlib/NumPy-kernel
    crossover.  Purely a *timing* probe: the chosen backend computes the
    identical digests, so calibration can never change garbled bytes.

    Args:
        widths: batch widths to sample.
        repeats: timing repetitions per cell (best-of).
        include_aes: also time the fixed-key-AES oracle (reporting only
            — a different oracle is never auto-selected).

    Returns:
        A :class:`KDFCalibration`; ~50-100 ms of work for the defaults.
        :class:`AutoHashKDF` defers this until the first batch wide enough for the choice to
        matter, so processes that never hash a wide level never pay it.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0xD5EC)
    loop = HashKDF()
    vec = VectorHashKDF(min_width=0)
    backends = [("hashlib", loop), ("sha256_vec", vec)]
    if include_aes:
        backends.append(("fixed_key_aes", FixedKeyAES()))
    rows_per_s: Dict[str, Dict[int, float]] = {n: {} for n, _ in backends}
    for width in widths:
        words = rng.integers(0, 2**64, size=(width, 3), dtype="<u8")
        rows, tweaks = words[:, :2], words[:, 2]
        for name, kdf in backends:
            kdf.hash_many(rows[:64], tweaks[:64])  # warm scratch/caches
            rows_per_s[name][width] = _bench_hash_many(kdf, rows, tweaks, repeats)
    cal = KDFCalibration(
        widths=tuple(widths),
        rows_per_s=rows_per_s,
        crossover_width=None,
        host_cores=os.cpu_count() or 1,
        elapsed_s=time.perf_counter() - start,
    )
    # one decision rule, one implementation: the recorded single-thread
    # crossover is the scale=1 case of the worker-scaled query
    return dataclasses.replace(
        cal, crossover_width=cal.crossover_for_scale(1.0)
    )


_calibration_lock = threading.Lock()
_calibration: Optional[KDFCalibration] = None


def kdf_calibration(force: bool = False) -> KDFCalibration:
    """The process-wide cached :func:`calibrate_kdf` result."""
    global _calibration
    with _calibration_lock:
        if _calibration is None or force:
            _calibration = calibrate_kdf()
        return _calibration


def make_kdf(backend: str, **kwargs: Any) -> HashKDF:
    """Instantiate a registered oracle backend by name."""
    try:
        cls = KDF_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown kdf backend {backend!r}; registered: "
            f"{', '.join(sorted(KDF_BACKENDS))}"
        ) from None
    return cls(**kwargs)


class AutoHashKDF(VectorHashKDF):
    """A SHA-256 oracle that calibrates lazily, on its first wide batch.

    Construction is free.  Batches below the smallest calibration width
    always take the hashlib loop (no crossover could favor the kernel
    there, so no measurement is needed); the first batch at or above it
    triggers the cached process-wide calibration and pins
    :attr:`min_width` to the measured crossover (or effectively
    infinity when the loop wins everywhere).  One-shot processes that
    never hash a wide level never pay the calibration cost.

    Args:
        workers_hint: the :class:`ParallelKDF` worker count this
            oracle will run under.
            Calibration is single-threaded, but only the NumPy kernel
            can use those workers (hashlib holds the GIL below 2KiB),
            so ``min_width`` is pinned to the *per-chunk* crossover at
            kernel-throughput x workers — on a multicore SHA-NI host,
            where the loop wins single-threaded, it still routes
            :class:`ParallelKDF`'s chunk-split batches through the
            kernel rather than silently discarding the cores.  Chunks
            of batches too narrow to split fully land below the
            crossover and fall back to the loop (GIL-parity, never a
            regression).
    """

    def __init__(self, workers_hint: int = 1) -> None:
        super().__init__(min_width=CALIBRATION_WIDTHS[0])
        self.workers_hint = max(1, workers_hint)
        self._resolved = False

    @property
    def name(self) -> str:  # type: ignore[override]
        if not self._resolved:
            return "sha256-auto"
        if self.min_width > _NEVER_VECTORIZE // 2:
            return "sha256-auto[hashlib]"
        return f"sha256-auto[vec>={self.min_width}]"

    def hash_many(self, rows: "np.ndarray", tweaks: "np.ndarray") -> "np.ndarray":
        """:meth:`VectorHashKDF.hash_many`, calibrating on the first
        batch wide enough to need it."""
        if not self._resolved and rows.shape[0] >= CALIBRATION_WIDTHS[0]:
            cal = kdf_calibration()
            scale = float(min(self.workers_hint, cal.host_cores))
            cross = cal.crossover_for_scale(scale)
            self.min_width = (
                cross if cross is not None else _NEVER_VECTORIZE
            )
            self._resolved = True
        return super().hash_many(rows, tweaks)


#: ``min_width`` sentinel meaning "calibration said the loop always wins".
_NEVER_VECTORIZE = 1 << 62


@functools.lru_cache(maxsize=None)
def default_kdf() -> HashKDF:
    """The default garbling oracle: one shared :class:`FixedKeyAES`."""
    return make_kdf("fixed_key_aes")


def oracle_fingerprint(kdf: Any) -> str:
    """What two parties compare to know they garble under one oracle.

    A functional probe rather than a name: distinct instances of one
    oracle, its wrappers (:class:`ParallelKDF`) and its other
    implementations (the SHA family, either AES provider) agree, and
    two different oracles do not.
    """
    return format(kdf.hash(3, 7), "032x")
