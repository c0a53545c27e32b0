"""The KDF subsystem: the fixed-key-AES default and its two providers,
the block-parallel SHA-256 kernel, oracle registry, host calibration,
and the vectorized IKNP row hashing built on it.

Contracts under test:

* :class:`repro.gc.FixedKeyAES` is one oracle whatever computes AES:
  ``hash_many``, ``hash``, ``hash_pair`` / ``hash_quad`` and the NumPy
  fallback agree row for row, from any thread and across ``fork``, and
  garbled tables are byte-identical between providers;
* it is the default everywhere a default is taken, and no default path
  calibrates;

* :func:`repro.gc.sha256_many` is byte-identical to ``hashlib.sha256``
  for every row — across lengths (including multi-block), batch sizes
  (including 0 and 1), truncated digests and non-contiguous views;
* every SHA-family implementation (``HashKDF``, ``VectorHashKDF``,
  ``AutoHashKDF``) and any :func:`calibrate_kdf` outcome produces
  byte-identical garbled tables, labels and decode bits for the same
  seed — calibration is a pure timing decision; only ``hashlib`` and
  ``fixed_key_aes`` are names a configuration can choose;
* ``ParallelKDF`` output is worker-count invariant with the NumPy
  kernel inside, and chunks below the kernel crossover fall back to
  the hashlib loop with byte-identical output;
* the IKNP fast path masks/unmasks exactly like the scalar loop.
"""

import hashlib
import os
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBuilder
from repro.engine import EngineConfig
from repro.errors import EngineError, OTError
from repro.gc import (
    KDF_BACKENDS,
    FixedKeyAES,
    HashKDF,
    ParallelKDF,
    VectorHashKDF,
    calibrate_kdf,
    default_kdf,
    kdf_calibration,
    make_kdf,
    oracle_fingerprint,
    sha256_many,
)
from repro.gc import cipher, ot_extension
from repro.gc.channel import make_channel_pair
from repro.gc.cipher import ROW_BYTES
from repro.gc.fastgarble import garble_many
from repro.gc.ot import TEST_GROUP_512
from repro.gc.protocol import TwoPartySession


def _random_rows(n, length, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, length), dtype=np.uint8)


def _label_words(n, seed=0):
    """``n`` random labels as ``(n, 2)`` ``<u8`` words and their
    ``(n,)`` tweak words: the ``hash_many`` input."""
    words = np.random.default_rng(seed).integers(0, 2**64, (n, 3), dtype="<u8")
    return words[:, :2].copy(), words[:, 2].copy()


def _reference_digests(rows, out_len=32):
    return [hashlib.sha256(bytes(row)).digest()[:out_len] for row in rows]


def _mixed_circuit(seed=11, n_gates=160):
    """A random netlist with wide levels and narrow tails."""
    rng = random.Random(seed)
    bld = CircuitBuilder(use_structural_hashing=False, fold_constants=False)
    wires = list(bld.add_alice_inputs(6)) + list(bld.add_bob_inputs(6))
    ops = ["xor", "and", "or", "nand", "xnor", "not"]
    for _ in range(n_gates):
        op = rng.choice(ops)
        x = rng.choice(wires)
        if op == "not":
            wires.append(bld.emit_not(x))
        else:
            wires.append(getattr(bld, f"emit_{op}")(x, rng.choice(wires)))
    for w in wires[-6:]:
        bld.mark_output(w)
    return bld.build()


class TestSha256VecParity:
    @pytest.mark.parametrize("length", [0, 1, 3, 4, 23, 24, 31, 55])
    @pytest.mark.parametrize("n", [0, 1, 2, 65])
    def test_single_block_lengths(self, length, n):
        rows = _random_rows(n, length, seed=length * 131 + n)
        got = sha256_many(rows)
        assert got.shape == (n, 32)
        assert [bytes(r) for r in got] == _reference_digests(rows)

    @pytest.mark.parametrize("length", [56, 64, 119, 120, 200])
    def test_multi_block_lengths(self, length):
        rows = _random_rows(9, length, seed=length)
        got = sha256_many(rows)
        assert [bytes(r) for r in got] == _reference_digests(rows)

    def test_truncated_digest_matches_prefix(self):
        rows = _random_rows(70, ROW_BYTES, seed=9)
        full = sha256_many(rows)
        for out_len in (4, 16, 28):
            assert np.array_equal(
                sha256_many(rows, out_len=out_len), full[:, :out_len]
            )

    def test_bad_out_len_rejected(self):
        rows = _random_rows(2, 24)
        for bad in (0, -4, 3, 33, 36):
            with pytest.raises(ValueError):
                sha256_many(rows, out_len=bad)

    def test_non_contiguous_view(self):
        base = _random_rows(80, 48, seed=3)
        view = base[::2, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        got = sha256_many(view)
        assert [bytes(r) for r in got] == _reference_digests(view)

    def test_chunked_giant_batch(self):
        from repro.gc.sha256_vec import CHUNK_ROWS

        n = CHUNK_ROWS + 37
        rows = _random_rows(n, ROW_BYTES, seed=4)
        got = sha256_many(rows, out_len=16)
        idx = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1]
        for i in idx:
            assert bytes(got[i]) == hashlib.sha256(
                bytes(rows[i])
            ).digest()[:16]

    @given(
        st.integers(min_value=0, max_value=90),
        st.integers(min_value=0, max_value=130),
        st.integers(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_random_shapes(self, n, length, seed):
        rows = _random_rows(n, length, seed=abs(seed) % (2**32))
        got = sha256_many(rows)
        assert [bytes(r) for r in got] == _reference_digests(rows)


class TestOracleRegistry:
    def test_vector_kdf_matches_hashlib_loop(self):
        rows, tweaks = _label_words(300, seed=6)
        loop, vec = HashKDF(), VectorHashKDF(min_width=0)
        assert np.array_equal(
            loop.hash_many(rows, tweaks), vec.hash_many(rows, tweaks)
        )

    def test_vector_kdf_narrow_fallback_identical(self):
        rows, tweaks = _label_words(50, seed=7)
        gated = VectorHashKDF(min_width=1000)   # forces the hashlib loop
        open_ = VectorHashKDF(min_width=0)      # forces the kernel
        assert np.array_equal(
            gated.hash_many(rows, tweaks), open_.hash_many(rows, tweaks)
        )

    @pytest.mark.parametrize("n", [0, 1, 70])
    def test_sha_inputs_are_label_then_tweak(self, n):
        """The SHA oracles build ``label || tweak`` from the words: each
        mask is the first 16 bytes of that row's SHA-256 digest."""
        rows, tweaks = _label_words(n, seed=n)
        expect = [
            hashlib.sha256(row.tobytes() + tweak.tobytes()).digest()[:16]
            for row, tweak in zip(rows, tweaks)
        ]
        for kdf in (HashKDF(), VectorHashKDF(min_width=0)):
            got = kdf.hash_many(rows, tweaks)
            assert got.shape == (n, 2) and got.dtype == np.dtype("<u8")
            assert [r.tobytes() for r in got] == expect

    def test_vector_kdf_scalar_hash_is_hashlib(self):
        vec, loop = VectorHashKDF(), HashKDF()
        for label, tweak in [(0, 0), (123456789, 7), (2**128 - 1, 2**63)]:
            assert vec.hash(label, tweak) == loop.hash(label, tweak)

    def test_registry_contents_and_make_kdf(self):
        # one name per oracle: the SHA re-implementations are classes only
        assert set(KDF_BACKENDS) == {"hashlib", "fixed_key_aes"}
        assert type(make_kdf("hashlib")) is HashKDF
        assert isinstance(make_kdf("fixed_key_aes"), FixedKeyAES)
        for name in ("md5", "sha256_vec", "auto"):
            with pytest.raises(ValueError, match="fixed_key_aes, hashlib$"):
                make_kdf(name)

    def test_engine_config_validates_backend(self):
        EngineConfig(kdf_backend="hashlib")
        with pytest.raises(EngineError):
            EngineConfig(kdf_backend="sha3")

    def test_effective_kdf_explicit_instance_wins(self):
        sentinel = FixedKeyAES()
        config = EngineConfig(kdf=sentinel, kdf_backend="hashlib")
        assert config.effective_kdf() is sentinel
        # any oracle instance, a class-only one included
        vec = VectorHashKDF()
        assert EngineConfig(kdf=vec).effective_kdf() is vec

    def test_effective_kdf_resolves_backend(self):
        # every name resolves to its own oracle, the default included
        assert type(EngineConfig(kdf_backend="hashlib").effective_kdf()) is HashKDF
        assert isinstance(EngineConfig().effective_kdf(), FixedKeyAES)


def _label_tweak_rows(n, seed=0):
    """Random label words and tweaks; every third label has bit 127 set
    (the GF(2^128) doubling's reduction branch) and row 0 is all ones."""
    rows, tweaks = _label_words(n, seed=seed)
    rows[::3, 1] |= np.uint64(1 << 63)
    rows[1::3, 1] &= np.uint64((1 << 63) - 1)
    if n:
        rows[0] = tweaks[0] = 2**64 - 1
    return rows, tweaks


def _split(rows, tweaks, i):
    """Row ``i`` as the scalar path's ``(label, tweak)`` ints."""
    return int(rows[i, 0]) | int(rows[i, 1]) << 64, int(tweaks[i])


@pytest.fixture
def numpy_aes(monkeypatch):
    """A :class:`FixedKeyAES` built with the native provider forced off."""
    with monkeypatch.context() as patch:
        patch.setattr(cipher, "_load_libcrypto", lambda: None)
        with pytest.warns(RuntimeWarning, match='kdf_backend="hashlib"'):
            kdf = FixedKeyAES()
    assert kdf.provider == "numpy"
    return kdf


@pytest.fixture(params=["libcrypto", "numpy"])
def aes(request):
    """The AES oracle under each provider: every test that takes this
    passes with libcrypto and with the NumPy fallback."""
    if request.param == "numpy":
        return request.getfixturevalue("numpy_aes")
    kdf = FixedKeyAES()
    if kdf.provider != "libcrypto":
        pytest.skip("no libcrypto with EVP AES on this host")
    return kdf


class TestFixedKeyAESOracle:
    FIPS_KEY = bytes(range(16))
    FIPS_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
    FIPS_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

    def test_fips197_appendix_c_through_both_paths(self):
        kdf = FixedKeyAES(self.FIPS_KEY)
        assert kdf.encrypt_block(self.FIPS_PLAIN) == self.FIPS_CIPHER
        blocks = np.frombuffer(self.FIPS_PLAIN * 3, dtype=np.uint8).reshape(3, 16)
        assert kdf.encrypt_blocks(blocks).tobytes() == self.FIPS_CIPHER * 3
        if kdf.provider != "libcrypto":
            pytest.skip("no libcrypto with EVP AES on this host")
        assert kdf._ecb_encrypt(blocks).tobytes() == self.FIPS_CIPHER * 3

    def test_ecb_encrypts_a_strided_view(self, aes, numpy_aes):
        """The seam encrypts the blocks a view shows, not the bytes that
        follow its first one in memory."""
        words = np.random.default_rng(8).integers(0, 2**64, (8, 4), dtype="<u8")
        view = words[:, :2]
        assert not view.flags["C_CONTIGUOUS"]
        expect = numpy_aes._ecb_encrypt(np.ascontiguousarray(view))
        assert np.array_equal(aes._ecb_encrypt(view), expect)

    @pytest.mark.parametrize("n", [0, 1, 2, 64, 257])
    def test_every_entry_point_is_one_function(self, aes, numpy_aes, n):
        rows, tweaks = _label_tweak_rows(n, seed=n)
        batched = aes.hash_many(rows, tweaks)
        assert batched.shape == (n, 2) and batched.dtype == np.dtype("<u8")
        assert np.array_equal(batched, numpy_aes.hash_many(rows, tweaks))
        scalar = [aes.hash(*_split(rows, tweaks, i)) for i in range(n)]
        assert [int(lo) | int(hi) << 64 for lo, hi in batched] == scalar
        # gate-granular calls: a gate's labels under tweaks t, t + 1
        labels = [_split(rows, tweaks, i)[0] for i in range(n)]
        for i in range(0, n - 3, 4):
            a0, a1, b0, b1 = labels[i : i + 4]
            tweak = 2 * i
            expect = (aes.hash(a0, tweak), aes.hash(a1, tweak),
                      aes.hash(b0, tweak + 1), aes.hash(b1, tweak + 1))
            assert aes.hash_quad(a0, a1, b0, b1, tweak) == expect
            assert aes.hash_pair(a0, b0, tweak) == (expect[0], expect[2])
            assert numpy_aes.hash_quad(a0, a1, b0, b1, tweak) == expect

    def test_extreme_labels_and_tweaks(self, aes, numpy_aes):
        top = (1 << 128) - 1
        for label in (0, 1, 1 << 127, top):
            for tweak in (0, 1, (1 << 63) - 2):
                expect = numpy_aes.hash(label, tweak)
                assert 0 <= expect <= top
                assert aes.hash(label, tweak) == expect
                assert aes.hash_pair(label, top, tweak) == (
                    expect, numpy_aes.hash(top, tweak + 1)
                )
                assert aes.hash_quad(top, label, label, top, tweak) == (
                    numpy_aes.hash(top, tweak), expect,
                    numpy_aes.hash(label, tweak + 1),
                    numpy_aes.hash(top, tweak + 1),
                )

    def test_non_contiguous_rows(self, aes, numpy_aes):
        wide, tweaks = _label_words(40, seed=5)
        wide = np.concatenate((wide, wide[::-1]), axis=1)
        view, tweak_view = wide[::2, 1:3], tweaks[::2]
        assert not view.flags["C_CONTIGUOUS"]
        assert np.array_equal(
            aes.hash_many(view, tweak_view),
            numpy_aes.hash_many(view.copy(), tweak_view.copy()),
        )

    def test_sha_loop_implements_the_gate_calls(self):
        for kdf in (HashKDF(), ParallelKDF(HashKDF(), workers=2)):
            assert kdf.hash_pair(5, 9, 6) == (kdf.hash(5, 6), kdf.hash(9, 7))
            assert kdf.hash_quad(5, 6, 9, 10, 6) == (
                kdf.hash(5, 6), kdf.hash(6, 6), kdf.hash(9, 7), kdf.hash(10, 7)
            )

    def test_concurrent_threads_get_the_single_threaded_answer(
        self, aes, numpy_aes
    ):
        """ctypes drops the GIL inside the cipher call: contexts and
        scratch are per thread, so neither batches nor gates may bleed
        between threads (more threads than cores, short switch interval)."""
        n_threads, rounds = 6, 20
        # the fallback's pure-Python block cipher is ~1000x slower per gate
        gates_per_round = 400 if aes.provider == "libcrypto" else 2
        batches = [_label_tweak_rows(96 + t, seed=100 + t) for t in range(n_threads)]
        expect = [numpy_aes.hash_many(*batch) for batch in batches]
        quads = [
            tuple(_split(*batch, i)[0] for i in range(4)) for batch in batches
        ]
        expect_quads = [numpy_aes.hash_quad(*q, 10 + t) for t, q in enumerate(quads)]
        wrong = []
        start = threading.Barrier(n_threads)

        def worker(t):
            a0, a1, b0, b1 = quads[t]
            quad, pair = expect_quads[t], (expect_quads[t][0], expect_quads[t][2])
            start.wait(timeout=30)
            for _ in range(rounds):
                if not np.array_equal(aes.hash_many(*batches[t]), expect[t]):
                    wrong.append(("hash_many", t))
                # the gate calls read a scratch buffer after the cipher
                # call returns: the window a shared scratch loses in
                for _ in range(gates_per_round):
                    if aes.hash_quad(a0, a1, b0, b1, 10 + t) != quad:
                        wrong.append(("hash_quad", t))
                    if aes.hash_pair(a0, b0, 10 + t) != pair:
                        wrong.append(("hash_pair", t))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_hashes_correctly_after_the_parent_has(
        self, aes, numpy_aes
    ):
        rows, tweaks = _label_tweak_rows(130, seed=7)
        expect = numpy_aes.hash_many(rows, tweaks)
        quad = tuple(_split(rows, tweaks, i)[0] for i in range(4))
        expect_quad = numpy_aes.hash_quad(*quad, 4)
        assert np.array_equal(aes.hash_many(rows, tweaks), expect)  # parent first
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            ok = False
            try:
                ok = (
                    np.array_equal(aes.hash_many(rows, tweaks), expect)
                    and aes.hash_quad(*quad, 4) == expect_quad
                )
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert aes.hash_quad(*quad, 4) == expect_quad  # parent still fine

    def test_tables_byte_identical_between_providers(self, numpy_aes):
        native = FixedKeyAES()
        if native.provider != "libcrypto":
            pytest.skip("no libcrypto with EVP AES on this host")
        circuit = _mixed_circuit(seed=33)
        outcomes = []
        for kdf in (native, numpy_aes):
            [(garbler, garbled)] = garble_many(
                circuit, 1, kdf=kdf, rng=random.Random(99)
            )
            outcomes.append((
                garbled.tables_bytes(), garbled.const_labels,
                tuple(garbled.decode_bits), garbler.labels.delta,
            ))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) == 32 * circuit.counts().non_xor
        assert oracle_fingerprint(native) == oracle_fingerprint(numpy_aes)


class TestAESIsTheDefault:
    def test_defaults_name_the_aes_oracle(self):
        assert EngineConfig().kdf_backend == "fixed_key_aes"
        assert isinstance(default_kdf(), FixedKeyAES)
        assert default_kdf() is default_kdf()  # one shared instance
        assert len(EngineConfig.__dataclass_fields__) == 17

    def test_no_default_path_calibrates(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a default path reached calibrate_kdf")

        monkeypatch.setattr(cipher, "calibrate_kdf", boom)
        monkeypatch.setattr(cipher, "_calibration", None)
        circuit = _mixed_circuit(seed=4, n_gates=600)
        session = TwoPartySession(
            circuit, kdf=EngineConfig().effective_kdf(),
            ot_group=TEST_GROUP_512, rng=random.Random(1),
        )
        client, server = [1, 0, 1, 1, 0, 0], [0, 1, 1, 0, 1, 0]
        defaulted = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(1)
        )
        assert (
            session.run(client, server).outputs
            == defaulted.run(client, server).outputs
        )

    def test_oracles_are_distinguished_by_fingerprint_not_by_name(self):
        sha = oracle_fingerprint(HashKDF())
        assert sha == oracle_fingerprint(VectorHashKDF())
        assert sha == oracle_fingerprint(cipher.AutoHashKDF())
        wrapped = ParallelKDF(HashKDF(), workers=2)
        assert sha == oracle_fingerprint(wrapped)
        assert sha != oracle_fingerprint(FixedKeyAES())
        assert oracle_fingerprint(FixedKeyAES()) != oracle_fingerprint(
            FixedKeyAES(b"another-16b-key!")
        )


class TestCalibration:
    def test_calibration_shape(self):
        cal = calibrate_kdf(widths=(64, 256), repeats=1)
        assert set(cal.rows_per_s) == {"hashlib", "sha256_vec"}
        for per in cal.rows_per_s.values():
            assert set(per) == {64, 256}
            assert all(v > 0 for v in per.values())
        assert cal.crossover_width in (None, 64, 256)
        d = cal.as_dict()
        assert d["widths"] == [64, 256]

    def test_best_backend_consistent_with_measurements(self):
        cal = calibrate_kdf(widths=(128, 1024), repeats=1)
        for width in cal.widths:
            if cal.best_sha_backend(width) == "sha256_vec":
                assert (
                    cal.rows_per_s["sha256_vec"][width]
                    >= cal.rows_per_s["hashlib"][width]
                )

    def test_cached_calibration_reused(self):
        first = kdf_calibration()
        assert kdf_calibration() is first

    def test_crossover_for_scale_models_worker_split(self):
        from repro.gc.cipher import KDFCalibration

        # synthetic SHA-NI-like host: the loop wins single-threaded at
        # every width, but the kernel scales with workers and the loop
        # cannot — 4 effective cores must flip the crossover
        cal = KDFCalibration(
            widths=(256, 1024, 4096),
            rows_per_s={
                "hashlib": {256: 1.7e6, 1024: 1.7e6, 4096: 1.7e6},
                "sha256_vec": {256: 0.24e6, 1024: 0.64e6, 4096: 1.45e6},
            },
            crossover_width=None,
            host_cores=4,
            elapsed_s=0.1,
        )
        assert cal.crossover_for_scale(1.0) is None
        assert cal.crossover_for_scale(4.0) == 1024
        assert cal.crossover_for_scale(8.0) == 256

    def test_auto_kdf_workers_hint_scales_crossover(self, monkeypatch):
        from repro.gc import cipher
        from repro.gc.cipher import AutoHashKDF, KDFCalibration

        cal = KDFCalibration(
            widths=(256, 1024, 4096),
            rows_per_s={
                "hashlib": {256: 1.7e6, 1024: 1.7e6, 4096: 1.7e6},
                "sha256_vec": {256: 0.24e6, 1024: 0.64e6, 4096: 1.45e6},
            },
            crossover_width=None,
            host_cores=8,
            elapsed_s=0.1,
        )
        monkeypatch.setattr(cipher, "kdf_calibration", lambda force=False: cal)
        rows, tweaks = _label_words(2048, seed=17)
        expect = HashKDF().hash_many(rows, tweaks)

        solo = AutoHashKDF(workers_hint=1)
        assert np.array_equal(solo.hash_many(rows, tweaks), expect)
        assert solo.min_width > 4096  # loop wins everywhere single-thread
        assert solo.name == "sha256-auto[hashlib]"

        pooled = AutoHashKDF(workers_hint=8)
        assert np.array_equal(pooled.hash_many(rows, tweaks), expect)
        # per-chunk crossover: 8 concurrent chunks of >= 256 rows beat
        # the GIL-bound loop even though each loses single-threaded
        assert pooled.min_width == 256
        assert pooled.name == "sha256-auto[vec>=256]"

    def test_calibration_never_changes_garbled_bytes(self):
        """The tentpole invariant: auto/vec/hashlib — identical bytes."""
        circuit = _mixed_circuit()
        kdf_calibration()  # ensure auto has a real measurement behind it
        outcomes = {}
        for backend, kdf in (
            ("hashlib", HashKDF()),
            ("sha256_vec", VectorHashKDF()),
            ("auto", cipher.AutoHashKDF()),
        ):
            [(garbler, garbled)] = garble_many(
                circuit, 1, kdf=kdf, rng=random.Random(99)
            )
            outcomes[backend] = (
                garbled.tables_bytes(),
                garbled.const_labels,
                tuple(garbled.decode_bits),
                garbler.labels.delta,
            )
        assert outcomes["hashlib"] == outcomes["sha256_vec"]
        assert outcomes["hashlib"] == outcomes["auto"]

    def test_aes_oracle_same_results_different_tables(self):
        """fixed_key_aes is a *different* oracle: same inference outputs
        end to end, different table bytes (never auto-selected)."""
        circuit = _mixed_circuit(seed=21, n_gates=60)
        client = [1, 0, 1, 1, 0, 0]
        server = [0, 1, 1, 0, 1, 0]

        def run(kdf):
            session = TwoPartySession(
                circuit, kdf=kdf, ot_group=TEST_GROUP_512,
                rng=random.Random(5),
            )
            return session.run(client, server)

        sha = run(HashKDF())
        aes = run(FixedKeyAES())
        assert sha.outputs == aes.outputs
        # same price per table under either oracle, different bytes
        assert sha.comm == aes.comm
        assert sha.comm["tables"] == 32 * sha.n_non_xor + 4
        [(_, by_sha)] = garble_many(circuit, 1, kdf=HashKDF(), rng=random.Random(5))
        [(_, by_aes)] = garble_many(circuit, 1, kdf=FixedKeyAES(), rng=random.Random(5))
        assert by_sha.tables_bytes() != by_aes.tables_bytes()


class TestParallelVectorKDF:
    def test_worker_count_invariance(self):
        rows, tweaks = _label_words(4096, seed=12)
        expect = HashKDF().hash_many(rows, tweaks)
        for workers in (1, 2, 5):
            pk = ParallelKDF(
                VectorHashKDF(min_width=0), workers=workers,
                min_rows_per_worker=256,
            )
            assert np.array_equal(pk.hash_many(rows, tweaks), expect)
            pk.close()

    def test_sub_crossover_chunks_fall_back_identically(self):
        # splitting is governed by min_rows_per_worker alone; chunks
        # that land below the inner kernel crossover take the hashlib
        # loop inside the workers — output must stay byte-identical
        calls = []

        class Spy(VectorHashKDF):
            def hash_many(self, rows, tweaks):
                calls.append(rows.shape[0])
                return super().hash_many(rows, tweaks)

        inner = Spy(min_width=1024)
        pk = ParallelKDF(inner, workers=8, min_rows_per_worker=64)
        rows, tweaks = _label_words(2048, seed=13)
        got = pk.hash_many(rows, tweaks)
        pk.close()
        assert calls and all(c < 1024 for c in calls)  # all sub-crossover
        assert np.array_equal(got, HashKDF().hash_many(rows, tweaks))


class TestVectorizedIKNP:
    def _pairs(self, m, seed=0):
        """``(m, 2, 16)`` sender plane and the receiver's choices."""
        rng = random.Random(seed)
        plane = np.frombuffer(rng.randbytes(2 * m * 16), dtype=np.uint8)
        choices = [rng.getrandbits(1) for _ in range(m)]
        return plane.reshape(m, 2, 16), choices

    def _run(self, pairs, choices, seed):
        return ot_extension.chosen_ot(
            pairs, choices, group=TEST_GROUP_512, rng=random.Random(seed),
        )

    def test_pads_are_four_cipher_calls(self, monkeypatch):
        # the row hash is one batch TCCR per side: two ECB passes for the
        # receiver's pads, two for both of the sender's, whatever m is
        calls = []
        cipher = ot_extension._pad_cipher()
        encrypt = cipher._ecb_encrypt

        def counting(blocks):
            calls.append(blocks.size // 16)
            return encrypt(blocks)

        monkeypatch.setattr(cipher, "_ecb_encrypt", counting)
        state = ot_extension.IKNPState(group=TEST_GROUP_512, rng=random.Random(3))
        state.set_up()
        pads = ot_extension.extension_ot(700, [1] * 700, state=state)
        assert calls == [700, 700, 1400, 1400]
        assert pads.chosen.shape == (700, 16) and pads.sender.shape == (700, 2, 16)

    def test_receiver_gets_chosen_messages(self):
        pairs, choices = self._pairs(80, seed=5)
        out, transferred = self._run(pairs, choices, seed=6)
        for (m0, m1), c, got in zip(pairs, choices, out):
            assert np.array_equal(got, m1 if c else m0)
        # the counter with the u columns, e, and the two label planes,
        # each frame's payload plus its 4-byte length prefix
        assert transferred == (
            (8 + 80 * ot_extension.KAPPA // 8 + 4) + (10 + 4) + (2 * 80 * 16 + 4)
        )

    def test_row_hash_known_answer(self):
        """The pads are wire contract: ``pi(pi(x) ^ T) ^ pi(x)`` with
        ``pi`` AES-128 under the pad key and ``T`` the row index then the
        counter, held against the scalar FIPS-197 path and pinned."""
        rows = (np.arange(702 * 16) % 251).astype(np.uint8).reshape(702, 16)
        pi = FixedKeyAES(ot_extension.PAD_KEY).encrypt_block

        def hash_row(index, row, counter):
            """``H(row, (counter, index))`` one row at a time: the reference."""
            tweak = index.to_bytes(8, "little") + counter.to_bytes(8, "little")
            x = pi(row)
            return bytes(a ^ b for a, b in zip(pi(bytes(a ^ b for a, b in zip(x, tweak))), x))

        pads = ot_extension._pad_hash(rows, 1000)
        assert pads.shape == (702, 16)
        assert hashlib.sha256(pads.tobytes()).hexdigest() == (
            "86928b419fb8fe678988939b38986c8238147a56f549ce8a43dc8ad730e48e2a"
        )
        for i in (0, 5, 701):
            assert pads[i].tobytes() == hash_row(i, rows[i].tobytes(), 1000)
        # a pair of rows takes its index's tweak on both
        pair = ot_extension._pad_hash(np.stack([rows, rows[::-1]], axis=1), 1000)
        assert np.array_equal(pair[:, 0], pads)

    def test_tweaks_separate_counters_and_rows(self):
        # one row value at every index of two extensions: 2 x 64 pads,
        # all distinct, so no pad is ever reused across rows or counters
        rows = np.tile(np.arange(16, dtype=np.uint8), (64, 1))
        pads = np.concatenate(
            [ot_extension._pad_hash(rows, counter) for counter in (0, 1)]
        )
        assert len({pad.tobytes() for pad in pads}) == 128

    def test_ragged_pairs_are_refused(self):
        """One plane layout: the sender hands in one ``(m, 2, 16)`` uint8
        plane of labels; ragged byte pairs, or a plane of another shape,
        are refused before phase 2 puts a frame on the link."""
        rng = random.Random(9)
        pairs = [(rng.randbytes(4), rng.randbytes(4)),
                 (rng.randbytes(20), rng.randbytes(20))] * 40
        state = ot_extension.IKNPState(group=TEST_GROUP_512, rng=random.Random(10))
        pads = ot_extension.extension_ot(80, [0] * 80, state=state)
        flat = np.zeros((80, 32), dtype=np.uint8)
        alice_end, _bob_end, stats = make_channel_pair()
        for messages in (pairs, flat, flat.reshape(80, 4, 8), flat.reshape(80, 2, 16)[:79]):
            with pytest.raises(OTError, match="one .* plane"):
                ot_extension.derandomize(messages, None, pads, (alice_end, None))
        assert stats.total_bytes == 0 and state.extensions == 1
