"""Level-scheduled engine vs the gate-at-a-time reference oracle.

The engine's three moves: wire labels as one uint8 plane, free-XOR steps as
single vectorized XORs, and the KDF driven through batched label and
tweak words, one call per AND layer.  This harness measures
garble + evaluate throughput on the compiled Table 3-style DL inference
netlist (the paper's workload shape: adder/multiplier trees plus tanh
components) against the reference loops tests pin the engine to
(``Garbler`` over a scalar ``LabelStore`` + ``Evaluator``), records the
speedup as an entry of the repo-root perf trajectory
(``BENCH_engine.json``), and ends its report with the plan shape of the
demo net and the MAC cell: levels, wide steps, scalar gates, oracle
calls per role, and each role's walk time per step kind (free, wide
AND, scalar run) at ``k`` = 1, 3 and 8.

Set ``REPRO_BENCH_QUICK=1`` for the single-round CI configuration.
"""

import os
import random
import time

import numpy as np
import pytest

from repro.analysis import build_gate_chain
from repro.circuits import FixedPointFormat
from repro.circuits.netlist import FreeStep, ScalarRun, ScheduleLevel
from repro.cli import _demo_service
from repro.compile import folded_mac_cell
from repro.gc import Evaluator, FastEvaluator, Garbler, LabelStore, garble_many
from repro.gc.fastgarble import VECTOR_MIN_WIDTH, _garble_walk

from _bench_util import quick_mode, record_trajectory, write_report

#: Combined garble+evaluate speedup the DL circuit must reach (the
#: ISSUE's acceptance bar is 2x; CI boxes get headroom via env).
SPEEDUP_FLOOR = float(os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "1.5"))


@pytest.fixture(scope="module")
def dl_service():
    return _demo_service(seed=17)


def _garble_evaluate_once(circuit, client_bits, server_bits, reference=False):
    """One full garble + evaluate pass; returns (garble_s, evaluate_s).

    ``reference`` times the gate-at-a-time oracle instead of the engine.
    """
    rng = random.Random(99)
    start = time.perf_counter()
    store = LabelStore(rng=rng) if reference else None
    garbler = Garbler(circuit, label_store=store, rng=rng)
    garbled = garbler.garble()
    garble_s = time.perf_counter() - start
    alice = garbler.input_labels_for(list(circuit.alice_inputs), client_bits)
    bob = [
        garbler.labels.select(w, b)
        for w, b in zip(circuit.bob_inputs, server_bits)
    ]
    evaluator = (Evaluator if reference else FastEvaluator)(circuit)
    start = time.perf_counter()
    evaluator.evaluate(garbled, alice, bob)
    return garble_s, time.perf_counter() - start


#: the plan's step kinds, as the walk-time report names them
STEP_KINDS = (("free", FreeStep), ("wide AND", ScheduleLevel), ("scalar run", ScalarRun))


def _walk_ms(circuit, k, rounds):
    """Per step kind, ``(garble, evaluate)`` ms of one walk of ``k``
    copies: each role walks only that kind's steps of its plan (on
    zero planes: the bytes are meaningless, the work is the same),
    best of ``rounds``."""
    schedule = circuit.level_schedule()
    plan = schedule.step_plan(k, VECTOR_MIN_WIDTH)
    stores = [g.labels for g, _ in garble_many(circuit, k, rng=random.Random(1))]
    evaluator = FastEvaluator(circuit)
    kdf = evaluator.kdf
    # wire-major, as the walks take them: a wire's (a table half's)
    # labels across the batch are one record
    planes = np.zeros((schedule.n_slots + 1, k, 16), dtype=np.uint8)
    halves = np.zeros((2 * schedule.n_non_free, k, 16), dtype=np.uint8)
    roles = (
        lambda: _garble_walk(schedule, kdf, stores, planes, halves, 0),
        lambda: evaluator._walk(planes, halves, 0),
    )
    out = {}
    for name, kind in STEP_KINDS:
        steps = tuple(step for step in plan if isinstance(step, kind))
        schedule.step_plan = lambda batch, width: steps
        try:
            out[name] = tuple(
                min(_timed(walk) for _ in range(rounds)) * 1e3 for walk in roles
            )
        finally:
            del schedule.step_plan
    return out


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _plan_shape(name, circuit, rounds=5):
    """One line: what one request's walk of ``circuit`` runs (``k = 1``)
    and what each step kind costs a role's walk at ``k`` = 1, 3 and 8."""
    schedule = circuit.level_schedule()
    plan = schedule.step_plan(1, VECTOR_MIN_WIDTH)
    runs = [step for step in plan if isinstance(step, ScalarRun)]
    wide_free = sum(isinstance(step, FreeStep) for step in plan)
    wide_and = len(plan) - len(runs) - wide_free
    scalar = [gate for run in runs for gate in run.gates]
    scalar_and = sum(gate[3] >= 0 for gate in scalar)
    walks = []
    for k in (1, 3, 8):
        times = _walk_ms(circuit, k, rounds)
        walks.append(f"k={k} " + ", ".join(
            f"{kind} {g:.2f}/{e:.2f}" for kind, (g, e) in times.items()
        ))
    return (
        f"{name}: {len(schedule.levels)} levels (AND-depth {circuit.depth()}) | "
        f"wide steps {wide_and} non-free / {wide_free} free | scalar gates "
        f"{len(scalar)} ({scalar_and} non-free) | oracle calls per role: "
        f"{wide_and} hash_many + {scalar_and} one-gate | walk ms per role "
        f"(garble/evaluate): " + "; ".join(walks)
    )


def _best_of(rounds, fn):
    samples = [fn() for _ in range(rounds)]
    return min(g for g, _ in samples), min(e for _, e in samples)


def test_vectorized_dl_speedup(benchmark, dl_service, results_dir):
    """>= 2x garble+evaluate on the Table 3 DL circuit (ISSUE 2 bar)."""
    service, x = dl_service
    circuit = service.compiled.circuit
    counts = circuit.counts()
    client_bits = service.compiled.client_bits(x[0])
    server_bits = service.compiled.server_bits()
    rounds = 1 if quick_mode() else 3
    # the schedule is built once per circuit and amortized over every
    # request a deployment serves; keep it out of the per-run timing
    circuit.level_schedule()

    scalar_g, scalar_e = _best_of(
        rounds,
        lambda: _garble_evaluate_once(circuit, client_bits, server_bits,
                                      reference=True),
    )
    benchmark.pedantic(
        _garble_evaluate_once,
        args=(circuit, client_bits, server_bits),
        rounds=1, iterations=1,
    )
    vec_g, vec_e = _best_of(
        rounds,
        lambda: _garble_evaluate_once(circuit, client_bits, server_bits),
    )
    speedup = (scalar_g + scalar_e) / (vec_g + vec_e)
    gates_per_s = counts.total / (vec_g + vec_e)
    text = (
        f"Table 3 DL circuit: {counts.xor} XOR + {counts.non_xor} non-XOR\n"
        f"scalar:     garble {scalar_g * 1e3:7.1f} ms | evaluate "
        f"{scalar_e * 1e3:7.1f} ms\n"
        f"vectorized: garble {vec_g * 1e3:7.1f} ms | evaluate "
        f"{vec_e * 1e3:7.1f} ms\n"
        f"garble speedup {scalar_g / vec_g:.2f}x | evaluate speedup "
        f"{scalar_e / vec_e:.2f}x | combined {speedup:.2f}x\n"
        f"vectorized throughput: {gates_per_s / 1e3:.0f}k gates/s\n"
        + _plan_shape("demo net", circuit, rounds)
        + "\n"
        + _plan_shape(
            "MAC cell", folded_mac_cell(FixedPointFormat(3, 12), 16).core, rounds
        )
    )
    write_report(results_dir, "vectorized_garbling", text)
    record_trajectory(
        "pr2-vectorized-garbling-dl",
        {
            "pr": 2,
            "circuit": "demo-dl-10x6x3",
            "n_xor": counts.xor,
            "n_non_xor": counts.non_xor,
            "scalar_garble_s": round(scalar_g, 6),
            "scalar_evaluate_s": round(scalar_e, 6),
            "vectorized_garble_s": round(vec_g, 6),
            "vectorized_evaluate_s": round(vec_e, 6),
            "speedup_garble_evaluate": round(speedup, 3),
            "vectorized_gates_per_s": round(gates_per_s),
            "quick_mode": quick_mode(),
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized engine only {speedup:.2f}x vs scalar "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def test_batch_garbling_amortization(benchmark, dl_service, results_dir):
    """garble_many(k) shares one schedule pass across pool copies."""
    service, _ = dl_service
    circuit = service.compiled.circuit
    copies = 4 if quick_mode() else 8

    start = time.perf_counter()
    for _ in range(copies):
        Garbler(
            circuit, label_store=LabelStore(rng=random.Random(5))
        ).garble()
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    pairs = benchmark.pedantic(
        garble_many, args=(circuit, copies),
        kwargs={"rng": random.Random(5)}, rounds=1, iterations=1,
    )
    batch_s = time.perf_counter() - start
    assert len(pairs) == copies
    speedup = scalar_s / batch_s
    text = (
        f"{copies} pre-garbled copies (pool warm / cut-and-choose):\n"
        f"scalar loop:   {scalar_s:.3f} s ({scalar_s / copies * 1e3:.0f} "
        f"ms/copy)\n"
        f"garble_many:   {batch_s:.3f} s ({batch_s / copies * 1e3:.0f} "
        f"ms/copy)\n"
        f"batch speedup: {speedup:.2f}x"
    )
    write_report(results_dir, "vectorized_batch_garbling", text)
    record_trajectory(
        "pr2-batch-garbling",
        {
            "pr": 2,
            "circuit": "demo-dl-10x6x3",
            "copies": copies,
            "scalar_s": round(scalar_s, 6),
            "garble_many_s": round(batch_s, 6),
            "speedup": round(speedup, 3),
            "quick_mode": quick_mode(),
        },
    )
    assert speedup >= 1.0


def test_worst_case_chain_no_collapse(results_dir):
    """A fully sequential AND chain (1 gate/level) — the hybrid's floor.

    Level scheduling cannot win here (no width anywhere); the narrow-
    level scalar fallback must keep the engine within ~2x of the
    reference instead of collapsing by an order of magnitude.
    """
    n = 2000 if quick_mode() else 10000
    circuit = build_gate_chain(n, "and")
    circuit.level_schedule()  # one-time, amortized in serving
    a_bits = [1] * circuit.n_alice
    b_bits = [1] * circuit.n_bob
    sg, se = _garble_evaluate_once(circuit, a_bits, b_bits, reference=True)
    vg, ve = _garble_evaluate_once(circuit, a_bits, b_bits)
    ratio = (sg + se) / (vg + ve)
    text = (
        f"AND chain ({n} gates, depth {n}): scalar {(sg + se) * 1e3:.0f} ms, "
        f"hybrid {(vg + ve) * 1e3:.0f} ms ({ratio:.2f}x)"
    )
    write_report(results_dir, "vectorized_worst_case_chain", text)
    assert ratio >= 0.5, "hybrid fallback regressed the sequential floor"
