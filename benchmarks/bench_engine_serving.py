"""Engine serving benchmarks: offline/online split and backend inventory.

Measures what the unified execution API buys a deployment:

* **pre-garbling** (paper Sec. 3: garbling is input-independent) — the
  online critical path of a pooled request drops the whole garble phase
  vs. a cold request on the same circuit;
* **backend inventory** — every registered backend serves the same
  compiled circuit and returns the same label.

`infer_many` is measured end to end by `benchmarks/layered/run.py`
(`dl_pooled_batch`, `sharded_socket`); its batched pass against `k`
single evaluations by `bench_throughput_engine.py`.
"""

import pytest

from repro.cli import _demo_service
from repro.engine import available_backends

from _bench_util import record_trajectory, write_report


@pytest.fixture(scope="module")
def service_and_data():
    # the CLI's demo service: same model, dataset and config as the
    # `infer`/`serve` subcommands, so benchmark results and CLI output
    # describe the same deployment — except that the pool only fills
    # when a test calls prepare(): an opportunistic refill thread garbles
    # *during* the pooled request it was kicked by, and once a garbling
    # costs less than a request that contention hides the split
    return _demo_service(history_limit=64, seed=11, pool_refill="none")


def test_offline_online_split(benchmark, service_and_data, results_dir):
    """Pooled requests pay no garbling online (the Sec. 3 split)."""
    service, x = service_and_data
    # a service's first request carries its one base-OT batch; spend it
    # before the clock so cold vs pooled differ by garbling alone
    service.infer(x[0])
    cold = service.infer(x[0])

    service.prepare(3)

    def pooled():
        if len(service.pool) == 0:
            service.prepare(1)
        return service.infer(x[0])

    warm = benchmark.pedantic(pooled, rounds=3, iterations=1)
    assert warm.pregarbled and not cold.pregarbled
    assert warm.times["garble"] < cold.times["garble"]
    assert warm.wall_seconds < cold.wall_seconds
    text = (
        f"cold online latency:   {cold.wall_seconds:.3f} s "
        f"(garble {cold.times['garble']:.3f} s on the critical path)\n"
        f"pooled online latency: {warm.wall_seconds:.3f} s "
        f"(garble {warm.times['garble'] * 1e3:.2f} ms)\n"
        f"online speedup: {cold.wall_seconds / warm.wall_seconds:.2f}x"
    )
    write_report(results_dir, "engine_offline_online", text)
    record_trajectory(
        "pr2-offline-online-split",
        {
            "pr": 2,
            "cold_online_s": round(cold.wall_seconds, 6),
            "pooled_online_s": round(warm.wall_seconds, 6),
            "online_speedup": round(
                cold.wall_seconds / warm.wall_seconds, 3
            ),
        },
    )


def test_backend_inventory(benchmark, service_and_data, results_dir):
    """Every registered backend serves the same request identically."""
    service, x = service_and_data
    sample = x[0]
    expected = service.cleartext_label(sample)
    lines = [f"{'backend':<16}{'label':>6}{'comm MB':>10}{'online s':>10}"]

    def run_all():
        rows = []
        for name in available_backends():
            record = service.infer(sample, backend=name)
            rows.append(record)
        return rows

    records = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for record in records:
        assert record.label == expected
        lines.append(
            f"{record.backend:<16}{record.label:>6}"
            f"{record.comm_bytes / 1e6:>10.2f}{record.wall_seconds:>10.2f}"
        )
    write_report(results_dir, "engine_backends", "\n".join(lines))
