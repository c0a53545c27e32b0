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
* every SHA-family backend (``hashlib``, ``sha256_vec``, ``auto``) and
  any :func:`calibrate_kdf` outcome produces byte-identical garbled
  tables, labels and decode bits for the same seed — calibration is a
  pure timing decision;
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
    resolve_kdf_backend,
    sha256_many,
)
from repro.gc import cipher, ot_extension
from repro.gc.cipher import ROW_BYTES
from repro.gc.fastgarble import garble_many
from repro.gc.ot import TEST_GROUP_512
from repro.gc.protocol import TwoPartySession


def _random_rows(n, length, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, length), dtype=np.uint8)


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
        rows = _random_rows(300, ROW_BYTES, seed=6)
        loop, vec = HashKDF(), VectorHashKDF(min_width=0)
        assert np.array_equal(loop.hash_many(rows), vec.hash_many(rows))

    def test_vector_kdf_narrow_fallback_identical(self):
        rows = _random_rows(50, ROW_BYTES, seed=7)
        gated = VectorHashKDF(min_width=1000)   # forces the hashlib loop
        open_ = VectorHashKDF(min_width=0)      # forces the kernel
        assert np.array_equal(gated.hash_many(rows), open_.hash_many(rows))

    def test_vector_kdf_scalar_hash_is_hashlib(self):
        vec, loop = VectorHashKDF(), HashKDF()
        for label, tweak in [(0, 0), (123456789, 7), (2**128 - 1, 2**63)]:
            assert vec.hash(label, tweak) == loop.hash(label, tweak)

    def test_registry_contents_and_make_kdf(self):
        assert set(KDF_BACKENDS) == {"hashlib", "sha256_vec",
                                     "fixed_key_aes"}
        assert isinstance(make_kdf("hashlib"), HashKDF)
        assert isinstance(make_kdf("sha256_vec"), VectorHashKDF)
        assert isinstance(make_kdf("fixed_key_aes"), FixedKeyAES)
        with pytest.raises(ValueError):
            make_kdf("md5")

    def test_resolve_auto_is_sha_family(self):
        kdf = resolve_kdf_backend("auto")
        # auto may pick either SHA implementation, never the AES oracle
        assert isinstance(kdf, HashKDF)
        assert not isinstance(kdf, FixedKeyAES)

    def test_engine_config_validates_backend(self):
        EngineConfig(kdf_backend="sha256_vec")
        with pytest.raises(EngineError):
            EngineConfig(kdf_backend="sha3")

    def test_effective_kdf_explicit_instance_wins(self):
        sentinel = FixedKeyAES()
        config = EngineConfig(kdf=sentinel, kdf_backend="sha256_vec")
        assert config.effective_kdf() is sentinel

    def test_effective_kdf_resolves_backend(self):
        assert isinstance(
            EngineConfig(kdf_backend="sha256_vec").effective_kdf(),
            VectorHashKDF,
        )
        # every name resolves to its own oracle, the default included
        assert type(EngineConfig(kdf_backend="hashlib").effective_kdf()) is HashKDF
        assert isinstance(EngineConfig().effective_kdf(), FixedKeyAES)

    def test_effective_kdf_wraps_workers_around_backend(self):
        kdf = EngineConfig(
            kdf_backend="sha256_vec", kdf_workers=3
        ).effective_kdf()
        assert isinstance(kdf, ParallelKDF)
        assert isinstance(kdf.inner, VectorHashKDF)
        kdf.close()


def _label_tweak_rows(n, seed=0):
    """Random ``label || tweak`` rows; every third label has bit 127 set
    (the GF(2^128) doubling's reduction branch) and row 0 is all ones."""
    rows = _random_rows(n, ROW_BYTES, seed=seed)
    rows[::3, 15] |= 0x80
    rows[1::3, 15] &= 0x7F
    if n:
        rows[0] = 0xFF
    return rows


def _split(row):
    return (int.from_bytes(row[:16].tobytes(), "little"),
            int.from_bytes(row[16:].tobytes(), "little"))


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

    @pytest.mark.parametrize("n", [0, 1, 2, 64, 257])
    def test_every_entry_point_is_one_function(self, aes, numpy_aes, n):
        rows = _label_tweak_rows(n, seed=n)
        batched = aes.hash_many(rows)
        assert batched.shape == (n, 16) and batched.dtype == np.uint8
        assert np.array_equal(batched, numpy_aes.hash_many(rows))
        scalar = [aes.hash(*_split(row)) for row in rows]
        assert [int.from_bytes(r.tobytes(), "little") for r in batched] == scalar
        # gate-granular calls: a gate's labels under tweaks t, t + 1
        labels = [_split(row)[0] for row in rows]
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
        wide = _random_rows(40, 2 * ROW_BYTES, seed=5)
        view = wide[::2, :ROW_BYTES]
        assert not view.flags["C_CONTIGUOUS"]
        assert np.array_equal(
            aes.hash_many(view), numpy_aes.hash_many(view.copy())
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
        expect = [numpy_aes.hash_many(rows) for rows in batches]
        quads = [
            tuple(_split(rows[i])[0] for i in range(4)) for rows in batches
        ]
        expect_quads = [numpy_aes.hash_quad(*q, 10 + t) for t, q in enumerate(quads)]
        wrong = []
        start = threading.Barrier(n_threads)

        def worker(t):
            a0, a1, b0, b1 = quads[t]
            quad, pair = expect_quads[t], (expect_quads[t][0], expect_quads[t][2])
            start.wait(timeout=30)
            for _ in range(rounds):
                if not np.array_equal(aes.hash_many(batches[t]), expect[t]):
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
        rows = _label_tweak_rows(130, seed=7)
        expect = numpy_aes.hash_many(rows)
        quad = tuple(_split(rows[i])[0] for i in range(4))
        expect_quad = numpy_aes.hash_quad(*quad, 4)
        assert np.array_equal(aes.hash_many(rows), expect)  # parent first
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            ok = False
            try:
                ok = (
                    np.array_equal(aes.hash_many(rows), expect)
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
        assert len(EngineConfig.__dataclass_fields__) == 23

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
        assert sha == oracle_fingerprint(resolve_kdf_backend("auto"))
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
        rows = _random_rows(2048, ROW_BYTES, seed=17)
        expect = HashKDF().hash_many(rows)

        solo = AutoHashKDF(workers_hint=1)
        assert np.array_equal(solo.hash_many(rows), expect)
        assert solo.min_width > 4096  # loop wins everywhere single-thread
        assert solo.name == "sha256-auto[hashlib]"

        pooled = AutoHashKDF(workers_hint=8)
        assert np.array_equal(pooled.hash_many(rows), expect)
        # per-chunk crossover: 8 concurrent chunks of >= 256 rows beat
        # the GIL-bound loop even though each loses single-threaded
        assert pooled.min_width == 256
        assert pooled.name == "sha256-auto[vec>=256]"

    def test_calibration_never_changes_garbled_bytes(self):
        """The tentpole invariant: auto/vec/hashlib — identical bytes."""
        circuit = _mixed_circuit()
        kdf_calibration()  # ensure auto has a real measurement behind it
        outcomes = {}
        for backend in ("hashlib", "sha256_vec", "auto"):
            kdf = EngineConfig(kdf_backend=backend).effective_kdf()
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
        rows = _random_rows(4096, ROW_BYTES, seed=12)
        expect = HashKDF().hash_many(rows)
        for workers in (1, 2, 5):
            pk = ParallelKDF(
                VectorHashKDF(min_width=0), workers=workers,
                min_rows_per_worker=256,
            )
            assert np.array_equal(pk.hash_many(rows), expect)
            pk.close()

    def test_sub_crossover_chunks_fall_back_identically(self):
        # splitting is governed by min_rows_per_worker alone; chunks
        # that land below the inner kernel crossover take the hashlib
        # loop inside the workers — output must stay byte-identical
        calls = []

        class Spy(VectorHashKDF):
            def hash_many(self, rows):
                calls.append(rows.shape[0])
                return super().hash_many(rows)

        inner = Spy(min_width=1024)
        pk = ParallelKDF(inner, workers=8, min_rows_per_worker=64)
        rows = _random_rows(2048, ROW_BYTES, seed=13)
        got = pk.hash_many(rows)
        pk.close()
        assert calls and all(c < 1024 for c in calls)  # all sub-crossover
        assert np.array_equal(got, HashKDF().hash_many(rows))


class TestVectorizedIKNP:
    def _pairs(self, m, length=16, seed=0):
        """``(m, 2, length)`` sender plane and the receiver's choices."""
        rng = random.Random(seed)
        plane = np.frombuffer(rng.randbytes(2 * m * length), dtype=np.uint8)
        choices = [rng.getrandbits(1) for _ in range(m)]
        return plane.reshape(m, 2, length), choices

    def _run(self, pairs, choices, seed):
        return ot_extension.extension_ot(
            pairs, choices, group=TEST_GROUP_512, rng=random.Random(seed),
        )

    def test_vector_path_multi_counter_messages(self):
        # 70-byte messages: every mask is three SHA-256 counters wide
        pairs, choices = self._pairs(70, length=70, seed=2)
        out, transferred = self._run(pairs, choices, seed=8)
        assert np.array_equal(out, pairs[np.arange(70), choices])
        assert transferred == (ot_extension.KAPPA * 9 + 4) + (2 * 70 * 70 + 4)

    def test_receiver_gets_chosen_messages(self):
        pairs, choices = self._pairs(80, seed=5)
        out, transferred = self._run(pairs, choices, seed=6)
        for (m0, m1), c, got in zip(pairs, choices, out):
            assert np.array_equal(got, m1 if c else m0)
        # the u columns and the two masked planes, each frame's payload
        # plus its 4-byte length prefix
        assert transferred == (
            (80 * ot_extension.KAPPA // 8 + 4) + (2 * 80 * 16 + 4)
        )

    @pytest.mark.parametrize(
        "length, digest",
        [
            (16, "4fe48c70928d98ec25e92bc2b3fdc1b44d39a70992b02e4de8b8723b965543ba"),
            (70, "3138ba54d6e0669be300e25732127e2303430d2c305b5843c8009eb288eb7671"),
        ],
    )
    def test_row_hash_known_answer(self, length, digest):
        """The masks are wire contract: pinned at the commit that still
        hashed rows through ``sha256_vec`` (70 bytes = three counters)."""
        rows = (np.arange(702 * 16) % 251).astype(np.uint8).reshape(702, 16)
        def hash_row(index, row, length):
            """``H(i, row)`` one row at a time: the reference."""
            out, counter = b"", 0
            while len(out) < length:
                out += hashlib.sha256(
                    index.to_bytes(8, "big") + counter.to_bytes(4, "big") + row
                ).digest()
                counter += 1
            return out[:length]

        masks = ot_extension._hash_rows(rows, length, 1000)
        assert masks.shape == (702, length)
        assert hashlib.sha256(masks.tobytes()).hexdigest() == digest
        for i in (0, 5, 701):
            assert masks[i].tobytes() == hash_row(1000 + i, rows[i].tobytes(), length)

    def test_ragged_pairs_are_refused(self):
        """One plane layout: the receiver reads the one message length
        off the frame, so the sender hands in one ``(m, 2, length)``
        uint8 plane; ragged byte pairs, or a plane of another shape, are
        refused before anything is reserved or framed."""
        rng = random.Random(9)
        pairs = [(rng.randbytes(4), rng.randbytes(4)),
                 (rng.randbytes(20), rng.randbytes(20))] * 40
        choices = [rng.getrandbits(1) for _ in range(80)]
        state = ot_extension.IKNPState(group=TEST_GROUP_512, rng=random.Random(10))
        flat = np.zeros((80, 32), dtype=np.uint8)
        for messages in (pairs, flat, flat.reshape(80, 4, 8)):
            with pytest.raises(OTError, match="one .* plane"):
                ot_extension.extension_ot(messages, choices, state=state)
        assert state.extensions == 0
