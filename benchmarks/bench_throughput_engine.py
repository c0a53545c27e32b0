"""PR 3 throughput tier: parallel KDF, batched evaluation and the folded
path.

Three measurements, each recorded as a ``pr: 3`` entry of the repo-root
perf trajectory (``BENCH_engine.json``):

* ``pr3-parallel-kdf`` — ``ParallelKDF`` worker scaling on a wide DL
  garble (thread-split ``hash_many`` row blocks);
* ``pr3-evaluate-many`` — ``FastEvaluator.evaluate_many(8)`` vs 8
  sequential vectorized evaluations (one plan walk for the batch;
  narrow levels become wide at ``k * m``);
* ``pr3-folded-vectorized`` — ``SequentialSession`` with the carried
  label plane vs the gate-at-a-time reference oracle (``LabelStore`` +
  ``Evaluator``) clocking the same folded MAC core.

Set ``REPRO_BENCH_QUICK=1`` for the single-round CI configuration.
Speedup floors are env-tunable (CI runners get relaxed bars); the
parallel-KDF floor only applies on hosts with >= 4 cores.
"""

import os
import random
import time

import pytest

from repro.circuits import FixedPointFormat, bits_from_int
from repro.cli import _demo_service
from repro.compile import folded_mac_cell
from repro.gc import (
    Evaluator,
    FastEvaluator,
    Garbler,
    HashKDF,
    LabelStore,
    ParallelKDF,
    SequentialSession,
    garble_many,
)
from repro.gc.ot import TEST_GROUP_512

from _bench_util import quick_mode, record_trajectory, write_report

#: evaluate_many(8) vs 8 sequential evaluations (ISSUE 3 bar: 1.8x).
BATCH_EVAL_FLOOR = float(
    os.environ.get("REPRO_BENCH_BATCH_EVAL_FLOOR", "1.8")
)
#: secondary bar vs the already-vectorized single-request evaluator.
BATCH_EVAL_VS_FAST_FLOOR = float(
    os.environ.get("REPRO_BENCH_BATCH_EVAL_VS_FAST_FLOOR", "1.1")
)
#: ParallelKDF(workers=4) vs inline on a wide garble (bar: 1.5x, needs cores).
KDF_FLOOR = float(os.environ.get("REPRO_BENCH_KDF_FLOOR", "1.5"))
#: folded session vs the reference oracle.  The MAC core is
#: mostly narrow levels, so the engine win is modest (~1.1x) and noisy
#: single-core hosts can flip a strict 1.0 bar; the recorded trajectory
#: number plus the CI regression comparator carry the real signal.
FOLDED_FLOOR = float(os.environ.get("REPRO_BENCH_FOLDED_FLOOR", "0.9"))

FMT = FixedPointFormat(2, 6)


@pytest.fixture(scope="module")
def dl_service():
    return _demo_service(seed=17)


def _best(rounds, fn):
    return min(fn() for _ in range(rounds))


def test_parallel_kdf_garble_scaling(dl_service, results_dir):
    """Thread-split hash_many across a worker pool (tentpole piece 1)."""
    service, _ = dl_service
    circuit = service.compiled.circuit
    circuit.level_schedule()
    rounds = 1 if quick_mode() else 3
    cores = os.cpu_count() or 1

    def garble_with(kdf):
        start = time.perf_counter()
        Garbler(circuit, kdf=kdf, rng=random.Random(31)).garble()
        return time.perf_counter() - start

    single_s = _best(rounds, lambda: garble_with(HashKDF()))
    parallel = ParallelKDF(HashKDF(), workers=4)
    parallel_s = _best(rounds, lambda: garble_with(parallel))
    parallel.close()
    speedup = single_s / parallel_s
    text = (
        f"wide DL garble ({circuit.counts().non_xor} tables), "
        f"{cores} host cores:\n"
        f"inline:                 {single_s * 1e3:7.1f} ms\n"
        f"ParallelKDF(workers=4): {parallel_s * 1e3:7.1f} ms ({speedup:.2f}x)"
    )
    write_report(results_dir, "parallel_kdf", text)
    record_trajectory(
        "pr3-parallel-kdf",
        {
            "pr": 3,
            "circuit": "demo-dl-10x6x3",
            "host_cores": cores,
            "kdf_workers": 4,
            "single_worker_garble_s": round(single_s, 6),
            "parallel_garble_s": round(parallel_s, 6),
            "kdf_speedup": round(speedup, 3),
            "quick_mode": quick_mode(),
        },
    )
    if cores >= 4:
        assert speedup >= KDF_FLOOR, (
            f"ParallelKDF only {speedup:.2f}x on {cores} cores "
            f"(floor {KDF_FLOOR}x)"
        )
    else:
        # on starved hosts the wrapper must at least not collapse
        assert speedup >= 0.5


def test_evaluate_many_throughput(dl_service, results_dir):
    """One schedule walk for 8 concurrent requests (tentpole piece 2).

    Two baselines, both recorded: 8 sequential scalar ``Evaluator``
    passes (the gate-at-a-time reference — the 1.8x acceptance bar) and
    8 sequential ``FastEvaluator`` passes (the already-vectorized
    single-request path).  Against the latter the win is bounded by the
    SHA-256 oracle floor — per-gate hash count is identical — so the
    batch gains only the per-request dispatch, plane setup and
    narrow-level scalar work it amortizes.
    """
    service, x = dl_service
    circuit = service.compiled.circuit
    circuit.level_schedule()
    k = 8
    client_bits = service.compiled.client_bits(x[0])
    server_bits = service.compiled.server_bits()
    pairs = garble_many(circuit, k, rng=random.Random(41))
    garbleds = [g for _, g in pairs]
    alices = [
        garbler.input_labels_for(list(circuit.alice_inputs), client_bits)
        for garbler, _ in pairs
    ]
    bobs = [
        [garbler.labels.select(w, b)
         for w, b in zip(circuit.bob_inputs, server_bits)]
        for garbler, _ in pairs
    ]
    evaluator = FastEvaluator(circuit)
    scalar_evaluator = Evaluator(circuit)
    rounds = 1 if quick_mode() else 3

    def scalar():
        start = time.perf_counter()
        for i in range(k):
            scalar_evaluator.evaluate(garbleds[i], alices[i], bobs[i])
        return time.perf_counter() - start

    def sequential():
        start = time.perf_counter()
        planes = [
            evaluator.evaluate(garbleds[i], alices[i], bobs[i])
            for i in range(k)
        ]
        return time.perf_counter() - start, planes

    def batched():
        start = time.perf_counter()
        planes = evaluator.evaluate_many(garbleds, alices, bobs)
        return time.perf_counter() - start, planes

    scalar_s = min(scalar() for _ in range(rounds))
    seq_s = min(sequential()[0] for _ in range(rounds))
    batch_s = min(batched()[0] for _ in range(rounds))
    # same bytes either way — the speedup is free of correctness risk
    ref = sequential()[1]
    got = batched()[1]
    for i in range(k):
        outs_ref = [ref[i][w] for w in circuit.outputs]
        outs_got = [got[i][w] for w in circuit.outputs]
        assert outs_ref == outs_got

    speedup = scalar_s / batch_s
    speedup_vs_fast = seq_s / batch_s
    text = (
        f"{k} concurrent requests on the DL netlist "
        f"({circuit.counts().non_xor} tables each):\n"
        f"8x scalar evaluate:     {scalar_s:.3f} s "
        f"({scalar_s / k * 1e3:.0f} ms/req)\n"
        f"8x vectorized evaluate: {seq_s:.3f} s "
        f"({seq_s / k * 1e3:.0f} ms/req)\n"
        f"evaluate_many(8):       {batch_s:.3f} s "
        f"({batch_s / k * 1e3:.0f} ms/req)\n"
        f"batch speedup: {speedup:.2f}x vs scalar | "
        f"{speedup_vs_fast:.2f}x vs vectorized"
    )
    write_report(results_dir, "evaluate_many", text)
    record_trajectory(
        "pr3-evaluate-many",
        {
            "pr": 3,
            "circuit": "demo-dl-10x6x3",
            "requests": k,
            "scalar_evaluate_s": round(scalar_s, 6),
            "sequential_evaluate_s": round(seq_s, 6),
            "evaluate_many_s": round(batch_s, 6),
            "batch_eval_speedup": round(speedup, 3),
            "batch_eval_speedup_vs_vectorized": round(speedup_vs_fast, 3),
            "quick_mode": quick_mode(),
        },
    )
    assert speedup >= BATCH_EVAL_FLOOR, (
        f"evaluate_many({k}) only {speedup:.2f}x vs scalar evaluate "
        f"(floor {BATCH_EVAL_FLOOR}x)"
    )
    assert speedup_vs_fast >= BATCH_EVAL_VS_FAST_FLOOR, (
        f"evaluate_many({k}) only {speedup_vs_fast:.2f}x vs the "
        f"vectorized single-request path "
        f"(floor {BATCH_EVAL_VS_FAST_FLOOR}x)"
    )


def _reference_folded_engine(cell, alice, bob, cycles):
    """Clock ``cell`` on the gate-at-a-time oracle; no OT, no channel.

    Returns ``(garble + evaluate seconds, outputs per cycle)`` — the
    engine share of a folded run, comparable to the session's own
    per-cycle garble/evaluate clocks.
    """
    core = cell.core
    store = LabelStore(rng=random.Random(9))
    garbler = Garbler(core, label_store=store)
    evaluator = Evaluator(core)
    d_wires = [reg.d_wire for reg in cell.registers]
    state_zero = eval_state = None
    tweak = 0
    engine = 0.0
    outputs = []
    for cycle in range(cycles):
        start = time.perf_counter()
        garbled = garbler.garble(state_zero_labels=state_zero, tweak_base=tweak)
        engine += time.perf_counter() - start
        if cycle == 0:
            eval_state = [
                store.select(wire, bit)
                for wire, bit in zip(core.state_inputs, cell.initial_state())
            ]
        alice_labels = garbler.input_labels_for(
            list(core.alice_inputs), alice[cycle]
        )
        bob_labels = garbler.input_labels_for(list(core.bob_inputs), bob[cycle])
        start = time.perf_counter()
        labels = evaluator.evaluate(
            garbled, alice_labels, bob_labels, state_labels=eval_state
        )
        engine += time.perf_counter() - start
        outputs.append(
            garbler.decode_outputs(evaluator.output_labels(labels))
        )
        state_zero = garbler.state_zero_labels_out(d_wires)
        eval_state = [labels[w] for w in d_wires]
        tweak += 2 * len(garbled.tables)
    return engine, outputs


def test_folded_vectorized_session(results_dir):
    """Carried label plane on the folded MAC core (tentpole piece 4).

    Session wall time also holds the run's one base-OT batch, the
    per-cycle extensions and the transfers, so the engine comparison
    uses the session's own per-cycle garble/evaluate clocks against the
    reference oracle clocking the same cycles; the session's wall time
    and its ratio to that engine time are recorded alongside.
    """
    fmt = FixedPointFormat(3, 12)  # the paper's 1.3.12 MAC datapath
    # the one-MAC cell: what this entry has measured since PR 3
    cell = folded_mac_cell(fmt, fan_in=16, fold=1)
    cycles = 6 if quick_mode() else 16
    width = cell.core.n_alice
    alice = [bits_from_int(3 + i, width) for i in range(cycles)]
    bob = [bits_from_int(2 * i + 1, cell.core.n_bob) for i in range(cycles)]
    rounds = 1 if quick_mode() else 3

    def run():
        session = SequentialSession(
            cell, ot_group=TEST_GROUP_512, rng=random.Random(9),
        )
        start = time.perf_counter()
        result = session.run(alice, bob, cycles=cycles)
        wall = time.perf_counter() - start
        engine = sum(result.garble_times) + sum(result.evaluate_times)
        return wall, engine, result

    runs_scalar = [
        _reference_folded_engine(cell, alice, bob, cycles)
        for _ in range(rounds)
    ]
    runs_vector = [run() for _ in range(rounds)]
    scalar_engine = min(r[0] for r in runs_scalar)
    vector_engine = min(r[1] for r in runs_vector)
    vector_wall = min(r[0] for r in runs_vector)
    # the session decodes what the oracle and the plaintext run decode
    outputs = runs_vector[0][2].outputs_per_cycle
    assert outputs == runs_scalar[0][1]
    assert outputs == cell.run(alice, bob, cycles=cycles)

    speedup = scalar_engine / vector_engine
    text = (
        f"folded MAC core {fmt.describe()}, {cycles} cycles "
        f"({cell.core.counts().non_xor} tables/cycle):\n"
        f"reference garble+evaluate: {scalar_engine:.3f} s\n"
        f"session garble+evaluate:   {vector_engine:.3f} s "
        f"(wall {vector_wall:.3f} s) — {speedup:.2f}x"
    )
    write_report(results_dir, "folded_vectorized", text)
    record_trajectory(
        "pr3-folded-vectorized",
        {
            "pr": 3,
            "circuit": f"folded-mac-{fmt.describe()}",
            "cycles": cycles,
            "scalar_engine_s": round(scalar_engine, 6),
            "vectorized_engine_s": round(vector_engine, 6),
            "vectorized_wall_s": round(vector_wall, 6),
            "wall_over_engine": round(vector_wall / vector_engine, 3),
            "folded_speedup": round(speedup, 3),
            "quick_mode": quick_mode(),
        },
    )
    assert speedup >= FOLDED_FLOOR, (
        f"folded session {speedup:.2f}x vs the reference oracle "
        f"(floor {FOLDED_FLOOR}x)"
    )
