"""Sec. 3.5 live: a dense layer as a folded sequential garbled circuit.

Runs the same matrix-vector product two ways under the real protocol —
as one combinational dot unit and as a one-MAC-per-cycle sequential
circuit (``fold=1``, the paper's point) — verifying identical integer
results and constant netlist memory for the folded form; the two are
the same construction (``dot_product_fixed``), so their table traffic
differs only by the carry propagation the folded form repeats every
clock.  ``test_fold_factor_curve`` then walks the
fold factor between those two ends: ``u`` MACs per clock against
latency, resident netlist, peak RSS and traffic
(``BENCH_engine.json::pr20-fold-factor``), the curve
``repro.compile.folded.MAC_FOLD`` is chosen from.
"""

import os
import pathlib
import random
import statistics
import subprocess
import sys
import time

import numpy as np

from repro.circuits import CircuitBuilder, FixedPointFormat
from repro.circuits.arith import dot_product_fixed, sign_magnitude
from repro.compile import folded_mac_cell, run_folded_dense
from repro.compile.folded import MAC_FOLD
from repro.gc import FastEvaluator, execute
from repro.gc.ot import TEST_GROUP_512
from repro.nn import fixed_mul

from _bench_util import quick_mode, record_trajectory, write_report

FMT = FixedPointFormat(2, 6)
#: the paper's 1.3.12 MAC datapath, and the layered benchmark's layer
PAPER_FMT = FixedPointFormat(3, 12)
INPUTS = 16
FOLDS = (1, 2, 4, 8, 16)
#: the default is the largest fold whose peak RSS stays within this
#: factor of the one-MAC cell's
RSS_RULE = 1.08

# one fresh process per fold: peak RSS is a high-water mark, and a cell
# stays cached for the life of the process that built it.  VmHWM, not
# ru_maxrss: the latter survives exec, so it would report the pytest
# process this one was forked from.  The imports are those of the
# layered benchmark's folded_seq child (child.py and workloads.py), so
# that the ratios read like its peak_rss_mb, the metric with the bound.
_RSS_SCRIPT = """
import argparse, json, multiprocessing, random, re, resource, statistics, sys
import numpy as np
import repro.engine, repro.nn, repro.service, repro.transport
from repro.circuits import FixedPointFormat
from repro.compile import run_folded_dense
from repro.gc.ot import TEST_GROUP_512
fold = int(sys.argv[1])
fmt = FixedPointFormat(3, 12)
operands = np.random.default_rng(0)
x = fmt.encode_array(operands.uniform(-1, 1, size=16))
w = fmt.encode_array(operands.uniform(-1, 1, size=(16, 1)))
rng = random.Random(0)
for _ in range(3):
    run_folded_dense([int(v) for v in x], w, fmt, ot_group=TEST_GROUP_512,
                     rng=rng, fold=fold)
status = open("/proc/self/status").read()
print(int(re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1)) / 1024)
"""


def combinational_matvec(in_dim, acc_width):
    builder = CircuitBuilder("matvec")
    x = [builder.add_alice_inputs(FMT.width) for _ in range(in_dim)]
    w = [builder.add_bob_inputs(FMT.width) for _ in range(in_dim)]
    builder.mark_output_bus(
        dot_product_fixed(
            builder,
            [sign_magnitude(builder, xi, symmetric=True) for xi in x],
            [sign_magnitude(builder, wi, symmetric=True) for wi in w],
            FMT.frac_bits,
            acc_width,
        )
    )
    return builder.build()


def test_folded_vs_combinational(benchmark, results_dir):
    rng = np.random.default_rng(0)
    in_dim = 6
    x = FMT.encode_array(rng.uniform(-1, 1, size=in_dim))
    w = FMT.encode_array(rng.uniform(-1, 1, size=(in_dim, 1)))
    reference = int(fixed_mul(x, w[:, 0], FMT.frac_bits).sum())

    folded = benchmark.pedantic(
        lambda: run_folded_dense(
            list(x), w, FMT, ot_group=TEST_GROUP_512, rng=random.Random(1),
            fold=1,
        ),
        rounds=1, iterations=1,
    )
    assert folded.outputs == [reference]

    cell = folded_mac_cell(FMT, fan_in=in_dim, fold=1)
    acc_width = cell.n_state
    comb = combinational_matvec(in_dim, acc_width)
    bits = []
    for value in list(x) + list(w[:, 0]):
        pattern = int(value) & ((1 << FMT.width) - 1)
        bits.append([(pattern >> i) & 1 for i in range(FMT.width)])
    alice = [b for bus in bits[:in_dim] for b in bus]
    bob = [b for bus in bits[in_dim:] for b in bus]
    result = execute(comb, alice, bob, ot_group=TEST_GROUP_512,
                     rng=random.Random(2))
    value = 0
    for i, bit in enumerate(result.outputs):
        value |= bit << i
    if value >> (acc_width - 1):
        value -= 1 << acc_width
    assert value == reference

    text = (
        f"matvec (1 x {in_dim}) under GC, both forms agree: {reference}\n"
        f"combinational netlist: {len(comb.gates)} gates "
        f"({comb.counts().non_xor} tables)\n"
        f"folded core netlist:   {folded.core_gates} gates, "
        f"run for {folded.cycles} cycles\n"
        f"memory footprint ratio: "
        f"{len(comb.gates) / folded.core_gates:.1f}x smaller resident netlist"
    )
    write_report(results_dir, "folded_sequential", text)
    assert folded.core_gates * 2 < len(comb.gates)


def test_folded_core_constant_in_layer_size(benchmark):
    sizes = [4, 16, 64]
    cores = [
        len(folded_mac_cell(FMT, fan_in=n, fold=1).core.gates) for n in sizes
    ]
    benchmark(lambda: folded_mac_cell(FMT, fan_in=64, fold=1))
    # only the accumulator width (log2 fan-in) moves the core size:
    # seven gates per bit
    assert max(cores) - min(cores) <= 30
    # and so at the default fold, wherever the layer is at least that wide
    wide = [len(folded_mac_cell(FMT, fan_in=n).core.gates) for n in (16, 64)]
    assert wide[1] - wide[0] <= 10 * MAC_FOLD


def _peak_rss_mb(fold):
    env = dict(os.environ)
    # the same dict and set layout in every child, as benchmarks/layered
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).parent.parent / "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, str(fold)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def test_fold_factor_curve(results_dir, monkeypatch):
    """``u`` MACs per clock on the 1.3.12 cell, one 16-input unit.

    Wall time per ``run_folded_dense`` call over interleaved rounds (one
    call per fold per round, so host drift hits every fold alike), the
    evaluator's gate rate from a clock around ``FastEvaluator.evaluate``,
    what stays resident (tables and wires of the core), traffic, cycles,
    and each fold's peak RSS from a process of its own.
    """
    rounds = 3 if quick_mode() else 12
    operands = np.random.default_rng(0)
    x = PAPER_FMT.encode_array(operands.uniform(-1, 1, size=INPUTS))
    w = PAPER_FMT.encode_array(operands.uniform(-1, 1, size=(INPUTS, 1)))
    reference = [int(fixed_mul(x, w[:, 0], PAPER_FMT.frac_bits).sum())]
    rng = random.Random(0)

    evaluating = [0.0]
    real_evaluate = FastEvaluator.evaluate

    def clocked(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return real_evaluate(self, *args, **kwargs)
        finally:
            evaluating[0] += time.perf_counter() - start

    monkeypatch.setattr(FastEvaluator, "evaluate", clocked)

    def request(fold):
        evaluating[0] = 0.0
        start = time.perf_counter()
        result = run_folded_dense(
            [int(v) for v in x], w, PAPER_FMT, ot_group=TEST_GROUP_512,
            rng=rng, fold=fold,
        )
        wall = time.perf_counter() - start
        assert result.outputs == reference
        return wall, evaluating[0], result

    results = {fold: request(fold)[2] for fold in FOLDS}  # warm: cell, plan
    walls = {fold: [] for fold in FOLDS}
    evaluate_s = {fold: [] for fold in FOLDS}
    for _ in range(rounds):
        for fold in FOLDS:
            wall, in_evaluate, _ = request(fold)
            walls[fold].append(wall)
            evaluate_s[fold].append(in_evaluate)

    rss = {fold: _peak_rss_mb(fold) for fold in FOLDS}
    p50 = {fold: statistics.median(walls[fold]) for fold in FOLDS}
    # per-round ratios: each round's folds ran back to back
    ratio = {
        fold: statistics.median(
            w_u / w_1 for w_u, w_1 in zip(walls[fold], walls[1])
        )
        for fold in FOLDS
    }
    within = [fold for fold in FOLDS if rss[fold] <= RSS_RULE * rss[1]]
    # a whole unit in one cycle hands no register label across a clock:
    # that is the combinational compiler, not a fold
    picked = max(fold for fold in within if fold < INPUTS)

    payload = {"pr": 20, "rounds": rounds, "inputs": INPUTS,
               "rss_rule": RSS_RULE, "rss_rule_picks_u": picked,
               "mac_fold": MAC_FOLD, "quick_mode": quick_mode()}
    lines = [
        f"fold factor u on the folded MAC cell {PAPER_FMT.describe()}, one "
        f"{INPUTS}-input unit per request ({rounds} interleaved rounds):",
        f"{'u':>3} {'cycles':>6} {'tables':>7} {'wires':>7} {'levels':>6} "
        f"{'wall p50 s':>11} {'vs u=1':>7} {'gates/s':>9} "
        f"{'comm bytes':>10} {'peak RSS MB':>11} {'vs u=1':>7}",
    ]
    tables_garbled = []
    for fold in FOLDS:
        core = folded_mac_cell(PAPER_FMT, fan_in=INPUTS, fold=fold).core
        result = results[fold]
        tables_garbled.append(result.cycles * core.counts().non_xor)
        gates_per_s = (
            len(core.gates) * result.cycles
            / statistics.median(evaluate_s[fold])
        )
        levels = len(core.level_schedule().levels)
        lines.append(
            f"{fold:>3} {result.cycles:>6} {core.counts().non_xor:>7} "
            f"{core.n_wires:>7} {levels:>6} {p50[fold]:>11.4f} "
            f"{ratio[fold]:>7.2f} {gates_per_s:>9.0f} "
            f"{result.comm_bytes:>10} {rss[fold]:>11.2f} "
            f"{rss[fold] / rss[1]:>7.3f}"
        )
        payload.update({
            f"cycles_u{fold}": result.cycles,
            f"tables_resident_u{fold}": core.counts().non_xor,
            f"wires_resident_u{fold}": core.n_wires,
            f"levels_u{fold}": levels,
            f"wall_p50_s_u{fold}": round(p50[fold], 6),
            f"wall_ratio_u{fold}_vs_u1": round(ratio[fold], 3),
            f"gates_per_s_u{fold}": round(gates_per_s),
            f"comm_bytes_u{fold}": result.comm_bytes,
            f"peak_rss_mb_u{fold}": round(rss[fold], 2),
            f"rss_ratio_u{fold}_vs_u1": round(rss[fold] / rss[1], 4),
        })
    lines.append(
        f"largest u < {INPUTS} with peak RSS <= {RSS_RULE} x the one-MAC "
        f"cell's: "
        f"{picked} (MAC_FOLD = {MAC_FOLD})"
    )
    payload["speedup_u8_vs_u1"] = round(1.0 / ratio[8], 3)
    write_report(results_dir, "folded_fold_curve", "\n".join(lines))
    record_trajectory("pr20-fold-factor", payload)

    # folding garbles the same products however it cuts them up; each
    # clock adds one carry propagation of the accumulator, so wider
    # clocks garble a little less, never more
    assert tables_garbled == sorted(tables_garbled, reverse=True)
    assert tables_garbled[0] < 1.05 * tables_garbled[-1]
    assert [results[f].cycles for f in FOLDS] == [16, 8, 4, 2, 1]
    assert ratio[8] < 1.0, f"u=8 is {ratio[8]:.2f}x the one-MAC cell's time"
