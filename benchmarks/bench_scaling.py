"""Table 2's scaling law, verified with live garbling.

The paper's cost model says GC work is linear in the MAC count
``sum n(l) n(l+1)`` (Table 2).  This harness compiles dense layers of
growing width, garbles + evaluates them for real, and checks that both
the table traffic and the wall time scale linearly in MACs (within
noise), i.e. the analytic model's *shape* is confirmed by the
implementation it models.
"""

import random
import time

import numpy as np

from repro.circuits import FixedPointFormat
from repro.compile import CompileOptions, compile_model
from repro.gc import TwoPartySession
from repro.gc.ot import TEST_GROUP_512
from repro.gc.ot_extension import IKNPState
from repro.nn import Dense, QuantizedModel, Sequential

from _bench_util import write_report

FMT = FixedPointFormat(2, 6)


def _compiled_layer(in_dim, out_dim, seed=0):
    model = Sequential([Dense(out_dim)], input_shape=(in_dim,), seed=seed)
    quantized = QuantizedModel(model, FMT)
    return compile_model(
        quantized, CompileOptions(activation="exact", output="logits")
    )


def test_tables_linear_in_macs(benchmark, results_dir):
    sizes = [(4, 2), (8, 2), (8, 4), (16, 4)]
    rows = []

    def measure():
        out = []
        for in_dim, out_dim in sizes:
            compiled = _compiled_layer(in_dim, out_dim)
            macs = in_dim * out_dim
            out.append((macs, compiled.circuit.counts().non_xor))
        return out

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    per_mac = [tables / macs for macs, tables in rows]
    spread = (max(per_mac) - min(per_mac)) / min(per_mac)
    lines = [f"{'MACs':>6}{'tables':>9}{'tables/MAC':>12}"]
    for (macs, tables), ratio in zip(rows, per_mac):
        lines.append(f"{macs:>6}{tables:>9}{ratio:>12.1f}")
    lines.append(f"per-MAC spread: {spread:.1%} (Table 2 predicts linear)")
    write_report(results_dir, "scaling_tables", "\n".join(lines))
    assert spread < 0.30  # near-linear; saturation/argmax are the offsets


def test_wall_time_tracks_tables(benchmark, results_dir):
    rng = np.random.default_rng(1)
    # one OT state across the points, as a served caller holds one: its
    # base OT is paid once, in the first point's warm-up run
    state = IKNPState(TEST_GROUP_512, random.Random(0))
    points = []
    for in_dim in (4, 8, 16):
        compiled = _compiled_layer(in_dim, 2, seed=1)
        sample = rng.uniform(-1, 1, size=in_dim)
        session = TwoPartySession(
            compiled.circuit, ot_group=TEST_GROUP_512,
            rng=random.Random(in_dim), ot_state=state,
        )
        alice_bits, bob_bits = compiled.client_bits(sample), compiled.server_bits()
        session.run(alice_bits, bob_bits)  # warm-up, outside the clock
        start = time.perf_counter()
        result = session.run(alice_bits, bob_bits)
        elapsed = time.perf_counter() - start
        points.append((result.n_non_xor, elapsed))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{'tables':>8}{'wall ms':>9}{'us/table':>10}"]
    for tables, elapsed in points:
        lines.append(f"{tables:>8}{1e3 * elapsed:>9.2f}{1e6 * elapsed / tables:>10.2f}")
    write_report(results_dir, "scaling_walltime", "\n".join(lines))
    # 4x the tables should cost roughly 4x the time (within generous noise:
    # at these sizes a request's fixed costs still weigh)
    small_rate = points[0][1] / points[0][0]
    large_rate = points[-1][1] / points[-1][0]
    assert 0.2 <= large_rate / small_rate <= 3.0
