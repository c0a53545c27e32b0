"""Compile at paper scale: columnar netlists and instantiated units.

Compiles two tanh nets at the paper's 1.3.12 format with CORDIC tanh
(Sec. 4.5), each in its own process so each peak RSS is its own:

* ``64-16-26`` — 2 189 553 gates, the largest net the column-less
  compiler (commit 1415e1f) handled on a 7 GB host;
* ``benchmark3`` — the paper's ``617-50FC-Tanh-26FC`` audio net
  (Table 4), untrained weights (a dense layer's netlist does not depend
  on them).

Per net it reports the compile time and gates per second, the bytes
per gate the compiled model retains (``tracemalloc`` over a second
compile), ``LevelSchedule.build`` time, the schedule's plane slots
beside the wires (a copy's label plane: one 16-byte row per slot, where
it once was one per wire) and the peak RSS after compiling and after
scheduling.  A schedule that does not fit in memory is reported as
such.  Every run asserts that the 64-16-26 net's slot plane is at most
``MAX_SLOT_PLANE_FRAC`` of its wire plane.  The full run records ``compile_speedup`` on the
64-16-26 net against the column-less compiler's time on the same 2-core
host (``COLUMNLESS_COMPILE_S``) as ``BENCH_engine.json::compile-scale``
and writes ``benchmarks/results/compile_scale.txt``.

``REPRO_BENCH_QUICK=1`` (CI) compiles the 64-16-26 net only and records
no trajectory entry: its speedup would compare another host's seconds
with this one's.  Run from ``benchmarks/``::

    PYTHONPATH=../src python -m pytest bench_compile_scale.py -q -s
"""

import gc
import json
import resource
import subprocess
import sys
import time
import tracemalloc

from _bench_util import quick_mode, record_trajectory, write_report

#: the 64-16-26 net's compile time at commit 1415e1f on the 2-core
#: development host, idle: 10.97 and 10.88 s (14.5-21.5 s while the
#: host was busy, when this compiler took 1.5-1.7 s)
COLUMNLESS_COMPILE_S = 10.9
#: acceptance bars on the development host
MIN_SPEEDUP = 8.0
MAX_BYTES_PER_GATE = 40.0
MAX_BENCHMARK3_COMPILE_S = 60.0
#: a copy's slot plane over its wire plane, at most (64-16-26: 7.6 %)
MAX_SLOT_PLANE_FRAC = 0.20

NETS = ("64-16-26", "benchmark3")


def _model(name):
    from repro.nn import Dense, Sequential, Tanh
    from repro.zoo import build_benchmark3_model

    if name == "benchmark3":
        return build_benchmark3_model()
    return Sequential([Dense(16), Tanh(), Dense(26)], input_shape=(64,), seed=0)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str) -> dict:
    """One net's figures (run in a process of its own)."""
    from repro.circuits import DEFAULT_FORMAT
    from repro.circuits.netlist import LevelSchedule
    from repro.compile import CompileOptions, compile_model
    from repro.nn import QuantizedModel

    quantized = QuantizedModel(
        _model(name), DEFAULT_FORMAT, activation_variant="cordic"
    )
    options = CompileOptions(activation="cordic")
    start = time.perf_counter()
    circuit = compile_model(quantized, options).circuit
    compile_s = time.perf_counter() - start
    counts = circuit.counts()
    out = {
        "gates": circuit.n_gates,
        "non_xor": counts.non_xor,
        "compile_s": round(compile_s, 3),
        "gates_per_s": round(circuit.n_gates / compile_s),
        "rss_compile_mb": round(_rss_mb(), 1),
    }
    try:
        start = time.perf_counter()
        schedule = LevelSchedule.build(circuit)
        out["schedule_s"] = round(time.perf_counter() - start, 3)
        out["levels"] = len(schedule.levels)
        out["slots"] = schedule.n_slots
        del schedule
    except MemoryError:
        out["schedule_s"] = None
        out["levels"] = None
        out["slots"] = None
    # a copy's label plane, per wire and per slot (the scratch row too)
    out["wire_plane_b"] = (circuit.n_wires + 1) * 16
    out["slot_plane_b"] = (
        None if out["slots"] is None else (out["slots"] + 1) * 16
    )
    out["rss_schedule_mb"] = round(_rss_mb(), 1)
    del circuit
    gc.collect()

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    compiled = compile_model(quantized, options)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    out["bytes_per_gate"] = round(retained / compiled.circuit.n_gates, 1)
    return out


def _measure_in_child(name: str) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, name], check=True, capture_output=True,
        text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _report(results: dict) -> str:
    lines = [
        f"{'net':<12}{'gates':>11}{'non-XOR':>10}{'compile s':>11}"
        f"{'gates/s':>11}{'B/gate':>8}{'sched s':>9}{'levels':>8}"
        f"{'slots':>9}{'plane B wire/slot':>22}{'RSS MB c/s':>14}"
    ]
    for name, r in results.items():
        sched = "n/a" if r["schedule_s"] is None else f"{r['schedule_s']:.2f}"
        planes = f"{r['wire_plane_b']}/{r['slot_plane_b'] or 'n/a'}"
        lines.append(
            f"{name:<12}{r['gates']:>11}{r['non_xor']:>10}"
            f"{r['compile_s']:>11.2f}{r['gates_per_s']:>11}"
            f"{r['bytes_per_gate']:>8.1f}{sched:>9}{str(r['levels']):>8}"
            f"{str(r['slots']):>9}{planes:>22}"
            f"{r['rss_compile_mb']:>7.0f}/{r['rss_schedule_mb']:<6.0f}"
        )
    return "\n".join(lines)


def test_compile_scale(results_dir):
    names = NETS[:1] if quick_mode() else NETS
    results = {name: _measure_in_child(name) for name in names}
    small = results["64-16-26"]
    assert small["gates"] == 2189553
    assert small["bytes_per_gate"] <= MAX_BYTES_PER_GATE
    assert small["slot_plane_b"] <= MAX_SLOT_PLANE_FRAC * small["wire_plane_b"]
    speedup = COLUMNLESS_COMPILE_S / small["compile_s"]
    report = _report(results) + (
        f"\n64-16-26 compile speedup over the column-less compiler "
        f"({COLUMNLESS_COMPILE_S} s): {speedup:.1f}x"
    )
    if quick_mode():
        print(report)
        return
    write_report(results_dir, "compile_scale", report)
    big = results["benchmark3"]
    assert speedup >= MIN_SPEEDUP
    assert big["compile_s"] <= MAX_BENCHMARK3_COMPILE_S
    assert big["bytes_per_gate"] <= MAX_BYTES_PER_GATE
    payload = {
        "benchmark": "benchmarks/bench_compile_scale.py (1.3.12, cordic)",
        "compile_speedup": round(speedup, 2),
        "columnless_compile_s": COLUMNLESS_COMPILE_S,
    }
    for name, r in results.items():
        key = name.replace("-", "_")
        payload.update({f"{key}_{field}": value for field, value in r.items()})
    record_trajectory("compile-scale", payload)


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1])))
