"""Sec. 4.3-4.4: GC performance characterization on this host.

Measures our engine's per-gate garble/evaluate throughput (the paper's
62/164 clk and 2.56M/5.11M gates/s figures on its testbed), verifies the
alpha = 2 x 128 bit/non-XOR communication constant, benchmarks the
protocol phases end to end, and prices one base-OT batch per group and
per provider of its modular exponentiation.
"""

import random
import time

from repro.analysis import build_gate_chain, characterize
from repro.compile import PAPER_COEFFICIENTS
from repro.gc import Evaluator, Garbler, execute, ot
from repro.gc.cipher import FixedKeyAES, default_kdf
from repro.gc.channel import make_channel_pair
from repro.gc.ot import MODP_2048, TEST_GROUP_512, OTGroup, base_ot_over_channel
from repro.gc.ot_extension import KAPPA

from _bench_util import quick_mode, write_report


def test_throughput_characterization(benchmark, results_dir):
    report = benchmark.pedantic(
        lambda: characterize(n_gates=20000), rounds=1, iterations=1
    )
    text = (
        f"host garbling engine ({default_kdf().name}[{default_kdf().provider}] "
        f"oracle):\n"
        f"  non-XOR throughput: {report.non_xor_per_s/1e3:.1f}k gates/s "
        f"(paper: {PAPER_COEFFICIENTS.effective_non_xor_per_s/1e6:.2f}M)\n"
        f"  XOR throughput:     {report.xor_per_s/1e3:.1f}k gates/s "
        f"(paper: {PAPER_COEFFICIENTS.effective_xor_per_s/1e6:.2f}M)\n"
        f"  slowdown vs paper's AES-NI C++: {report.slowdown_vs_paper:.0f}x\n"
        f"  implied clks/gate at 3.4 GHz: XOR {report.coefficients.xor_clks:.0f} "
        f"(paper 62), non-XOR {report.coefficients.non_xor_clks:.0f} (paper 164)"
    )
    write_report(results_dir, "gc_throughput", text)
    assert report.non_xor_per_s > 5_000
    assert report.xor_per_s > report.non_xor_per_s


def test_garble_throughput(benchmark):
    circuit = build_gate_chain(5000, "and")
    rng = random.Random(0)

    def garble():
        return Garbler(circuit, rng=rng).garble()

    garbled = benchmark(garble)
    assert len(garbled.tables) == 5000


def test_evaluate_throughput(benchmark):
    circuit = build_gate_chain(5000, "and")
    rng = random.Random(0)
    garbler = Garbler(circuit, rng=rng)
    garbled = garbler.garble()
    alice = garbler.input_labels_for(list(circuit.alice_inputs), [1, 0])
    bob = [garbler.labels.select(w, 1) for w in circuit.bob_inputs]
    evaluator = Evaluator(circuit)
    benchmark(lambda: evaluator.evaluate(garbled, alice, bob))


def test_fixed_key_aes_through_the_reference_engine(benchmark, results_dir):
    """The default AES oracle under the gate-at-a-time reference engine
    (one ``hash`` call per half gate): correct, and the slow way to use it."""
    circuit = build_gate_chain(200, "and")
    rng = random.Random(1)
    kdf = FixedKeyAES()

    def run():
        garbler = Garbler(circuit, kdf=kdf, rng=rng)
        garbled = garbler.garble()
        evaluator = Evaluator(circuit, kdf=kdf)
        alice = garbler.input_labels_for(list(circuit.alice_inputs), [1, 1])
        bob = [garbler.labels.select(w, 0) for w in circuit.bob_inputs]
        wires = evaluator.evaluate(garbled, alice, bob)
        return garbler.decode_outputs(evaluator.output_labels(wires))

    outputs = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outputs == [0]  # AND chain with a zero input


def test_alpha_constant(benchmark, results_dir):
    """Eq. 4: every non-XOR gate costs exactly 2 x 128 transferred bits."""
    rng = random.Random(2)
    sizes = [100, 500, 1000]
    rows = []
    for n in sizes:
        circuit = build_gate_chain(n, "and")
        result = execute(circuit, [1, 0], [1, 1],
                         ot_group=TEST_GROUP_512, rng=rng)
        table_bytes = result.comm["tables"] - 4  # frame prefix
        rows.append((n, table_bytes, table_bytes / n))
        assert table_bytes == 32 * n
    text = "\n".join(
        f"non-XOR={n:>5}: tables={b:>7} B = {r:.0f} B/gate (alpha = 256 bit)"
        for n, b, r in rows
    )
    write_report(results_dir, "gc_alpha_constant", text)


def test_base_ot_batch(benchmark, results_dir, monkeypatch):
    """One IKNP set-up's base-OT batch (128 transfers of 16-byte seed
    pairs) in each group, with ``OTGroup.power`` in libcrypto and on its
    ``pow`` fallback: counted modexps and inverses, one modexp, one batch."""
    rng = random.Random(18)
    pairs = [(rng.randbytes(16), rng.randbytes(16)) for _ in range(KAPPA)]
    choices = [rng.getrandbits(1) for _ in range(KAPPA)]
    expected = [pair[choice] for pair, choice in zip(pairs, choices)]
    calls = {"power": 0, "inverse": 0}
    for name in calls:
        def spy(self, *args, _name=name, _original=getattr(OTGroup, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(OTGroup, name, spy)

    def modexp_us(group, repeats):
        cases = [
            (rng.randrange(group.prime), rng.randrange(group.prime))
            for _ in range(repeats)
        ]
        start = time.perf_counter()
        for base, exponent in cases:
            group.power(base, exponent)
        return (time.perf_counter() - start) / repeats * 1e6

    def row(group):
        per_modexp = modexp_us(group, 200 if group is TEST_GROUP_512 else 5)
        if group is MODP_2048 and group.provider == "python" and quick_mode():
            # ~14 s of pow: priced from the counts, not run
            wall, how = (3 * KAPPA + 3) * per_modexp / 1e6, "modexps x us/modexp"
            counted = (3 * KAPPA + 3, 1)
        else:
            calls.update(power=0, inverse=0)
            start = time.perf_counter()
            alice_end, bob_end, _ = make_channel_pair()
            out = base_ot_over_channel(
                pairs, choices, 16, sender_end=alice_end, receiver_end=bob_end,
                group=group, rng=rng,
            )
            wall, how = time.perf_counter() - start, "run"
            assert out == expected
            counted = (calls["power"], calls["inverse"])
        return (group.name, group.provider, *counted, per_modexp, wall, how)

    def measure():
        rows = [row(group) for group in (TEST_GROUP_512, MODP_2048)]
        if TEST_GROUP_512.provider == "libcrypto":
            # the fallback, forced as tests/test_ot.py::python_pow does: no
            # candidate library offers the BN symbols
            monkeypatch.setattr(ot, "_bind_bn", _no_bn_symbols)
            ot._native_modulus.cache_clear()
            rows += [row(group) for group in (TEST_GROUP_512, MODP_2048)]
        return rows

    try:
        rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    finally:
        # rebuilt on next use, after monkeypatch has restored the binder
        ot._native_modulus.cache_clear()
    write_report(results_dir, "base_ot", "\n".join(
        f"{name:>10} [{provider:>9}]: {modexps} modexps + {inverses} inverse | "
        f"{per_modexp:9.1f} us/modexp | {wall:8.4f} s/batch ({how})"
        for name, provider, modexps, inverses, per_modexp, wall, how in rows
    ))
    assert all(r[2:4] == (3 * KAPPA + 3, 1) for r in rows)
    walls = {(r[0], r[1]): r[5] for r in rows}
    if ("modp-2048", "libcrypto") in walls:
        # the production group's set-up stays a couple of seconds, and
        # well under what the fallback costs
        assert walls["modp-2048", "libcrypto"] < 5.0
        assert walls["modp-2048", "libcrypto"] < 0.5 * walls["modp-2048", "python"]


def _no_bn_symbols(lib):
    raise AttributeError("BN_mod_exp_mont_consttime")
