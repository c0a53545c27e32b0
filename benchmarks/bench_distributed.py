"""Distributed serving benchmarks: shard scaling and transport overhead.

Measures what the PR 9 serving tier costs and buys:

* **shard scaling** — ``ShardedService.infer_many`` across worker
  *processes* vs the single-process batched pass on the same batch
  (process parallelism sidesteps the GIL; the win tracks host cores);
* **online latency** — p50/p95 per-request online time under sharded
  serving;
* **transport overhead** — the same protocol run over in-memory deques
  vs the wire codec + kernel socketpairs (socket/memory throughput
  ratio; expected a little under 1.0 — the codec and kernel round trips
  are not free);
* **two-process peers** — the same session with one party per process
  (:mod:`repro.transport.peer`), five requests on one connection: the
  first pays the connection's base OT, requests 2-5 do not.
"""

import statistics
import time

import pytest

from repro.cli import _demo_service
from repro.transport import ShardedService

from _bench_util import quick_mode, record_trajectory, write_report

#: Batch size for the shard-scaling comparison (the acceptance bar asks
#: for >= 8 requests).
BATCH = 8
#: Timed batches per side of the shard-scaling comparison (median taken).
ROUNDS = 1 if quick_mode() else 3


def _shard_factory():
    service, _ = _demo_service(pool_size=BATCH // 2, seed=11)
    return service


@pytest.fixture(scope="module")
def service_and_data():
    return _demo_service(pool_size=BATCH, history_limit=64, seed=11)


def test_shard_scaling_throughput(service_and_data, results_dir):
    """2 worker shards vs single-process serving on one batch."""
    service, x = service_and_data
    requests = list(x[:BATCH])

    def batches(target, rewarm):
        """Median wall of the timed batches, after one untimed batch.

        The untimed batch takes what a serving process pays once — its
        base OT, the level schedule, the KDF calibration — so the ratio
        compares steady-state batches; each batch starts from a pool
        re-warmed outside the clock.
        """
        walls = []
        for _ in range(ROUNDS + 1):
            rewarm()
            start = time.perf_counter()
            served = target.infer_many(requests)
            walls.append(time.perf_counter() - start)
        return served, statistics.median(walls[1:])

    single, single_wall = batches(service, service.prepare)
    single_rps = len(single) / single_wall

    sharded = ShardedService(_shard_factory, shards=2)
    try:
        results, sharded_wall = batches(
            sharded, lambda: sharded.prepare(BATCH // 2)
        )
        stats = sharded.stats()
    finally:
        sharded.close()
    sharded_rps = len(results) / sharded_wall

    assert [r.label for r in results] == [r.label for r in single]
    assert stats["degraded_requests"] == 0

    online = sorted(r.wall_seconds for r in results)
    p50 = statistics.median(online)
    p95 = online[min(len(online) - 1, int(round(0.95 * (len(online) - 1))))]

    speedup = sharded_rps / single_rps
    text = (
        f"single-process: {len(single)} requests in {single_wall:.2f} s "
        f"({single_rps:.2f} req/s)\n"
        f"2-shard fleet:  {len(results)} requests in {sharded_wall:.2f} s "
        f"({sharded_rps:.2f} req/s)\n"
        f"shard speedup: {speedup:.2f}x | online p50 {p50:.3f} s, "
        f"p95 {p95:.3f} s"
    )
    write_report(results_dir, "distributed_shard_scaling", text)
    record_trajectory(
        "pr9-shard-scaling",
        {
            "pr": 9,
            "batch": BATCH,
            "shards": 2,
            "single_process_rps": round(single_rps, 4),
            "sharded_rps": round(sharded_rps, 4),
            "shard_speedup": round(speedup, 3),
            "online_p50_s": round(p50, 6),
            "online_p95_s": round(p95, 6),
        },
    )


def test_socket_transport_overhead(service_and_data, results_dir):
    """Wire codec + kernel socketpair vs in-memory deques, same protocol."""
    import random

    from repro.gc import IKNPState, TwoPartySession
    from repro.gc.ot import TEST_GROUP_512
    from repro.transport import socketpair_channel_factory

    service, x = service_and_data
    circuit = service.compiled.circuit
    alice_bits = service.compiled.client_bits(x[0])
    bob_bits = service._server_bits

    # one OT-extension state for every run, as a serving backend holds
    # it: the first warm-up pays the base OT, the timed runs do not
    ot_state = IKNPState(group=TEST_GROUP_512, rng=random.Random(5))

    def run(channel_factory):
        session = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(5),
            channel_factory=channel_factory, ot_state=ot_state,
        )
        start = time.perf_counter()
        result = session.run(alice_bits, bob_bits)
        return result, time.perf_counter() - start

    # one warmup each, then the measured pass
    run(None)
    memory_result, memory_s = run(None)
    run(socketpair_channel_factory())
    socket_result, socket_s = run(socketpair_channel_factory())

    assert socket_result.outputs == memory_result.outputs
    assert socket_result.comm == memory_result.comm

    ratio = memory_s / socket_s  # socket throughput relative to memory
    text = (
        f"memory transport: {memory_s:.3f} s/run\n"
        f"socket transport: {socket_s:.3f} s/run\n"
        f"socket/memory throughput: {ratio:.2f}x "
        f"(same outputs, same {sum(memory_result.comm.values())} comm bytes)"
    )
    write_report(results_dir, "distributed_transport_overhead", text)
    record_trajectory(
        "pr9-socket-transport",
        {
            "pr": 9,
            "memory_run_s": round(memory_s, 6),
            "socket_run_s": round(socket_s, 6),
            "socket_transport_speedup": round(ratio, 3),
            "comm_bytes": sum(memory_result.comm.values()),
        },
    )


def _peer_evaluator(sock, service, requests):
    """The forked child: the evaluator's side of every request, on the
    service's own weights, one OT state for the connection."""
    import os

    from repro.gc import IKNPState
    from repro.transport import run_two_party_peer

    ot_state = IKNPState(group=service.config.ot_group)
    for _ in range(requests):
        run_two_party_peer(
            sock, "evaluator", service.compiled.circuit,
            service.compiled.server_bits(), kdf=service.kdf,
            ot_group=service.config.ot_group, ot_state=ot_state,
        )
    os._exit(0)


def test_two_process_peer_latency(service_and_data, results_dir):
    """One party per process over a socketpair vs the in-memory session."""
    import multiprocessing
    import socket

    from repro.circuits import simulate
    from repro.gc import IKNPState, TwoPartySession
    from repro.transport import run_two_party_peer

    service, x = service_and_data
    circuit, group = service.compiled.circuit, service.config.ot_group
    server_bits = service.compiled.server_bits()
    requests = 5

    left, right = socket.socketpair()
    child = multiprocessing.get_context("fork").Process(
        target=_peer_evaluator, args=(right, service, requests)
    )
    child.start()
    right.close()
    ot_state = IKNPState(group=group)
    walls, served = [], []
    try:
        for index in range(requests):
            bits = service.compiled.client_bits(x[index])
            start = time.perf_counter()
            result = run_two_party_peer(
                left, "garbler", circuit, bits, kdf=service.kdf,
                ot_group=group, ot_state=ot_state,
            )
            walls.append(time.perf_counter() - start)
            served.append((bits, result.outputs))
    finally:
        left.close()
        child.join(timeout=60.0)
    assert child.exitcode == 0
    # checked after the loop: the requests run back to back
    for bits, outputs in served:
        assert outputs == simulate(circuit, bits, server_bits)

    # the in-memory session that keeps its OT state, same requests
    session = TwoPartySession(
        circuit, kdf=service.kdf, ot_group=group, ot_state=IKNPState(group=group)
    )
    memory = []
    for index in range(requests):
        start = time.perf_counter()
        session.run(service.compiled.client_bits(x[index]), server_bits)
        memory.append(time.perf_counter() - start)

    peer_s, memory_s = statistics.median(walls[1:]), statistics.median(memory[1:])
    text = (
        f"two processes, first request (pays the connection's base OT): "
        f"{walls[0]:.3f} s\n"
        f"two processes, requests 2-{requests} (median): {peer_s:.3f} s\n"
        f"one process, in-memory, requests 2-{requests} (median): "
        f"{memory_s:.3f} s\n"
        f"peer/in-memory throughput: {memory_s / peer_s:.2f}x "
        f"(ot group {service.ot_group_name})"
    )
    write_report(results_dir, "distributed_two_process_peer", text)
    record_trajectory(
        "pr22-two-process-peer",
        {
            "pr": 22,
            "peer_first_request_s": round(walls[0], 6),
            "peer_later_request_s": round(peer_s, 6),
            "memory_later_request_s": round(memory_s, 6),
            "peer_vs_memory_speedup": round(memory_s / peer_s, 3),
        },
    )
