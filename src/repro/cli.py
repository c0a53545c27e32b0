"""Command-line front end for the reproduction harness.

Usage::

    python -m repro.cli demo              # one live private inference
    python -m repro.cli infer -b outsourced  # one inference, any backend
    python -m repro.cli serve -n 6        # batch serving, pre-garbled pool
    python -m repro.cli serve --shards 2  # process-sharded serving
    python -m repro.cli worker --port 0   # host the evaluator on a socket

``infer`` and ``serve`` exercise the :mod:`repro.engine` execution API
live.  The paper's tables and figures are the ``bench_table*`` /
``bench_fig*`` modules under ``benchmarks/``, which write them to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]


#: Samples in the live subcommands' demo dataset.
_DEMO_SAMPLES = 400


def _demo_service(backend: str = "two_party", activation: str = "exact",
                  pool_size: int = 0, seed: int = 1,
                  pool_refill: str = "idle",
                  kdf_backend: str = "fixed_key_aes",
                  request_timeout_s=None, max_retries: int = 0,
                  fault_specs=None, fault_seed: int = 0,
                  transport: Optional[str] = None, max_inflight: int = 0):
    """A small trained service for the live subcommands (fast OT group)."""
    import random

    import numpy as np

    from .circuits import FixedPointFormat
    from .engine import EngineConfig
    from .gc.ot import TEST_GROUP_512
    from .nn import Dense, Sequential, Tanh, TrainConfig, Trainer
    from .resilience import FaultPlan
    from .service import PrivateInferenceService

    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(_DEMO_SAMPLES, 10))
    w = rng.normal(size=(10, 3))
    y = (x @ w).argmax(axis=1)
    model = Sequential([Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=1)
    Trainer(model, TrainConfig(epochs=20, learning_rate=0.2)).fit(x, y)
    fault_plan = (
        FaultPlan.parse(fault_specs, seed=fault_seed) if fault_specs else None
    )
    config_kwargs = dict(
        fmt=FixedPointFormat(2, 6),
        activation=activation,
        backend=backend,
        ot_group=TEST_GROUP_512,
        rng=random.Random(seed),
        kdf_backend=kdf_backend,
        pool_size=pool_size,
        pool_refill=pool_refill,
        request_timeout_s=request_timeout_s,
        max_retries=max_retries,
        fault_plan=fault_plan,
        max_inflight=max_inflight,
    )
    if transport is not None:
        config_kwargs["transport"] = transport
    config = EngineConfig(**config_kwargs)
    return PrivateInferenceService(model, config), x


def _cmd_demo(args) -> None:
    service, x = _demo_service()
    print(service.circuit_summary)
    print(f"kdf {service.kdf_name} | ot group {service.ot_group_name}")
    record = service.infer(x[0])
    print(f"private label: {record.label} | cleartext: "
          f"{service.cleartext_label(x[0])} | comm "
          f"{record.comm_bytes / 1e6:.2f} MB | {record.wall_seconds:.2f} s")


def _cmd_infer(args) -> None:
    if not 0 <= args.samples <= _DEMO_SAMPLES:
        raise SystemExit(f"infer: --samples must be in 0..{_DEMO_SAMPLES}")
    if args.connect is not None:
        _infer_remote(args)
        return
    service, x = _demo_service(backend=args.backend, activation=args.activation,
                               transport=args.transport)
    print(service.circuit_summary)
    for index in range(args.samples):
        record = service.infer(x[index])
        phases = ", ".join(
            f"{k}={v * 1e3:.0f}ms" for k, v in record.times.items()
        )
        print(f"[{args.backend}] sample {index}: label {record.label} "
              f"(cleartext {service.cleartext_label(x[index])}) | "
              f"comm {record.comm_bytes / 1e6:.2f} MB | {phases}")


def _infer_remote(args) -> None:
    """Serve samples against a ``cli worker`` process: the front-end runs
    the garbler side of each split session on its own sample, the worker
    the evaluator side on its own weights — neither sends the other an
    input bit or a seed."""
    import socket

    from .errors import EngineError
    from .gc.ot_extension import IKNPState
    from .transport import run_two_party_peer
    from .transport.worker import open_peer_session, recv_ctl, send_ctl

    if args.backend != "two_party":
        raise SystemExit("infer: --connect supports backend two_party only")
    if args.transport != "socket":
        raise SystemExit("infer: --connect requires --transport socket")
    host, _, port = args.connect.rpartition(":")
    service, x = _demo_service(backend="two_party",
                               activation=args.activation)
    print(service.circuit_summary)
    sock = socket.create_connection((host or "127.0.0.1", int(port)))
    # the connection's OT state: its first session pays the base OT
    ot_state = IKNPState(service.config.ot_group)
    agreements = 0
    try:
        for index in range(args.samples):
            try:
                open_peer_session(sock, service.kdf)
            except EngineError as exc:
                raise SystemExit(f"infer: {exc}")
            paid = ot_state.setup_bytes == 0
            result = run_two_party_peer(
                sock, "garbler", service.compiled.circuit,
                service.compiled.client_bits(x[index]),
                kdf=service.kdf, ot_group=service.config.ot_group,
                ot_state=ot_state,
            )
            remote = recv_ctl(sock, timeout=60.0)
            label = service.compiled.decode_output(result.outputs)
            comm = sum(result.comm.values())
            agree = bool(remote.get("ok")) and remote.get("comm_bytes") == comm
            agreements += agree
            print(f"[{args.backend}/socket] sample {index}: label {label} "
                  f"(cleartext {service.cleartext_label(x[index])}) | "
                  f"comm {comm / 1e6:.2f} MB | "
                  f"base OT: {'paid' if paid else 'kept'} | "
                  f"comm agreement: {'OK' if agree else 'MISMATCH'}")
        send_ctl(sock, {"op": "shutdown"})
        bye = recv_ctl(sock, timeout=60.0)
        print(f"worker shutdown: {'OK' if bye.get('ok') else 'FAILED'} | "
              f"sessions agreed {agreements}/{args.samples}")
    finally:
        sock.close()
    if agreements != args.samples:
        raise SystemExit("infer: the two ends counted different traffic")


def _cmd_worker(args) -> None:
    """Host the evaluator side of the protocol on a TCP socket."""
    import signal

    from .transport.worker import WorkerServer

    service, _ = _demo_service(backend="two_party",
                               activation=args.activation,
                               pool_size=args.pool)
    if args.pool:
        service.prepare()
    server = WorkerServer(service, host=args.host, port=args.port)
    host, port = server.address
    print(f"worker: listening on {host}:{port}", flush=True)
    if args.port_file:
        server.write_port_file(args.port_file)

    def _on_sigterm(signum, frame):
        # graceful drain: finish the in-flight ctl record, stop
        # accepting, remove the port file (request_shutdown is
        # signal-safe: it only sets a flag and closes the listener)
        print("worker: SIGTERM received, draining...", flush=True)
        server.request_shutdown()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever(once=args.once)
    finally:
        signal.signal(signal.SIGTERM, previous)
        service.close()
    ops = ", ".join(
        f"{op}={count}" for op, count in sorted(server.counters.items())
    ) or "none"
    how = "drained" if server.draining else "clean shutdown"
    print(f"worker: served {server.connections} connections ({ops}) | {how}")


def _serve_sharded(args) -> None:
    """``serve --shards N``: the multi-process self-healing front-end."""
    import os
    import signal
    import threading
    import time

    from .transport import ShardedService

    pool_size = args.pool if args.pool is not None else args.requests
    per_shard_pool = -(-pool_size // args.shards) if pool_size else 0
    if args.kill_shard:
        index_text, _, delay_text = args.kill_shard.partition(":")
        victim_index = int(index_text)
        delay_s = float(delay_text) if delay_text else 0.5
        if not 0 <= victim_index < args.shards:
            raise SystemExit(f"serve: --kill-shard index must be in "
                             f"0..{args.shards - 1}")

    def factory():
        service, _ = _demo_service(
            pool_size=per_shard_pool,
            kdf_backend=args.kdf_backend,
            request_timeout_s=args.request_timeout,
            max_retries=args.max_retries,
        )
        return service

    reference, x = _demo_service()
    print(reference.circuit_summary)
    sharded = ShardedService(factory, shards=args.shards,
                             prepare=per_shard_pool,
                             max_inflight=args.max_inflight,
                             probe_interval_s=0.25,
                             restart_backoff_s=0.25)
    print(f"offline phase: {args.shards} worker processes up, "
          f"{per_shard_pool} circuits pre-garbled per shard")

    def _on_sigterm(signum, frame):
        # graceful drain off the main thread: in-flight batches finish,
        # new ones are refused, then the workers shut down
        print("serve: SIGTERM received, draining...", flush=True)
        threading.Thread(target=sharded.close, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    if args.kill_shard:
        victim_pid = sharded._shards[victim_index].process.pid

        def _chaos_kill():
            time.sleep(delay_s)
            print(f"chaos: SIGKILL shard {victim_index} "
                  f"(pid {victim_pid}) mid-batch", flush=True)
            try:
                os.kill(victim_pid, signal.SIGKILL)
            except OSError:
                pass

        threading.Thread(target=_chaos_kill, daemon=True).start()

    def _batch_report(tag, results, wall, expected):
        stats = sharded.stats()
        shard_requests = [s["requests"] for s in stats["per_shard"]]
        print(f"{tag}served {len(results)} requests across {args.shards} "
              f"shards in {wall:.2f} s ({len(results) / wall:.2f} req/s)")
        print(f"shards: requests per shard {shard_requests} | live "
              f"{stats['live_shards']}/{stats['shards']} | degraded "
              f"{stats['degraded_requests']} | reroutes {stats['reroutes']}")
        retries = sum(
            s.get("service", {}).get("retries", 0)
            for s in stats["per_shard"]
        )
        faults = sum(
            s.get("service", {}).get("transient_faults", 0)
            for s in stats["per_shard"]
        )
        print(f"resilience: retries {retries} | transient faults {faults} | "
              f"degraded {stats['degraded_requests']} | shed "
              f"{stats['shed_requests']}")
        ok = [r for r in results if r.ok]
        agree = all(
            r.label == expected[i] for i, r in enumerate(results) if r.ok
        )
        print(f"{tag}labels: {[r.label for r in results]} | "
              f"failed {len(results) - len(ok)}/{len(results)} | "
              f"cleartext agreement: {'OK' if agree else 'MISMATCH'}")
        return stats

    try:
        expected = [reference.cleartext_label(s) for s in x[: args.requests]]
        start = time.perf_counter()
        results = sharded.infer_many(list(x[: args.requests]))
        wall = time.perf_counter() - start
        stats = _batch_report("", results, wall, expected)
        if args.kill_shard:
            # wait for the supervisor to re-fork, rewarm and re-probe
            # the killed worker, then prove the healed fleet serves the
            # next batch without further degradation
            deadline = time.monotonic() + 120.0
            healed = False
            while time.monotonic() < deadline:
                stats = sharded.stats()
                if (stats["restarts"] >= 1
                        and stats["live_shards"] == args.shards):
                    healed = True
                    break
                time.sleep(0.1)
            print(f"supervision: restarts {stats['restarts']} | states "
                  f"{sharded.shard_states()} | recovered: "
                  f"{'OK' if healed else 'TIMEOUT'}")
            degraded_before = stats["degraded_requests"]
            start = time.perf_counter()
            results = sharded.infer_many(list(x[: args.requests]))
            wall = time.perf_counter() - start
            stats = _batch_report("post-restart ", results, wall, expected)
            delta = stats["degraded_requests"] - degraded_before
            verdict = "OK" if delta == 0 else "STILL DEGRADED"
            print(f"post-restart degraded delta: {delta} | restarted shard "
                  f"back in rotation: {verdict}")
    finally:
        signal.signal(signal.SIGTERM, previous)
        sharded.close()
        reference.close()
        final = sharded.stats()
        print(f"drain: drained {final['drained_requests']} | aborted "
              f"{final['aborted_requests']} | restarts {final['restarts']}")


def _cmd_serve(args) -> None:
    import time

    if args.requests < 1:
        raise SystemExit("serve: --requests must be >= 1")
    if args.pool is not None and args.pool < 0:
        raise SystemExit("serve: --pool must be >= 0")
    if args.requests > _DEMO_SAMPLES:
        raise SystemExit(f"serve: --requests must be <= {_DEMO_SAMPLES} "
                         "(demo dataset size)")
    if args.shards < 0:
        raise SystemExit("serve: --shards must be >= 0")
    if args.max_inflight < 0:
        raise SystemExit("serve: --max-inflight must be >= 0")
    if args.kill_shard and not args.shards:
        raise SystemExit("serve: --kill-shard requires --shards")
    if args.shards:
        if args.fault:
            raise SystemExit("serve: --fault applies to single-process "
                             "serving (fault injection rides the shard "
                             "services' own configs)")
        _serve_sharded(args)
        return
    pool_size = args.pool if args.pool is not None else args.requests
    service, x = _demo_service(
        pool_size=pool_size, kdf_backend=args.kdf_backend,
        request_timeout_s=args.request_timeout,
        max_retries=args.max_retries,
        fault_specs=args.fault, fault_seed=args.fault_seed,
        transport=args.transport,
        max_inflight=args.max_inflight,
    )
    pool = service.pool
    import signal
    import threading

    def _on_sigterm(signum, frame):
        print("serve: SIGTERM received, draining...", flush=True)
        threading.Thread(target=service.close, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    print(service.circuit_summary)
    if pool_size > 0:
        warmed = service.prepare()
        print(f"offline phase: {warmed} circuits pre-garbled "
              f"(kdf backend {args.kdf_backend} -> {service.kdf_name}, "
              f"ot group {service.ot_group_name})")
    else:
        print("offline phase: disabled (--pool 0, cold baseline)")

    start = time.perf_counter()
    results = service.infer_many(list(x[: args.requests]), return_errors=True)
    wall = time.perf_counter() - start

    online = [r.wall_seconds for r in results]
    pooled = sum(1 for r in results if r.pregarbled)
    ok = [r for r in results if r.ok]
    failed = [r for r in results if not r.ok]
    expected = [service.cleartext_label(s) for s in x[: args.requests]]
    print(f"served {len(results)} requests "
          f"in {wall:.2f} s ({len(results) / wall:.2f} req/s)")
    hit_rate = f"{pool.hit_rate:.0%}" if pool is not None else "n/a"
    print(f"online latency: mean {sum(online) / len(online):.2f} s | "
          f"max {max(online):.2f} s | pre-garbled {pooled}/{len(results)} "
          f"(pool hit rate {hit_rate})")
    if pool is not None:
        pstats = pool.stats()
        print(f"pool: {pstats['size']}/{pstats['capacity']} ready | "
              f"garbled {pstats['garbled_total']} total | "
              f"copy {pstats['copy_bytes']} B | "
              f"refills {pstats['refills']} ({pstats['refill']}) | "
              f"offline OT {pstats['offline_ot_bytes']} B")
    stats = service.stats
    breakers = stats.get("breakers", {})
    open_breakers = sum(
        1 for b in breakers.values() if b["state"] != "closed"
    )
    print(f"resilience: retries {stats['retries']} | transient faults "
          f"{stats['transient_faults']} | degraded {stats['degraded']} | "
          f"breakers open {open_breakers}/{len(breakers) or 1} | shed "
          f"{stats['shed_requests']} (max inflight "
          f"{stats['max_inflight'] or 'unbounded'})")
    if "faults" in stats:
        fp = stats["faults"]
        fired = ", ".join(
            f"{kind}:{tag}#{seq}" for kind, tag, seq in fp["applied_log"]
        ) or "none"
        print(f"fault plan: {fp['applied']}/{len(fp['specs'])} faults "
              f"fired ({fired})")
    agree = all(
        r.label == expected[i] for i, r in enumerate(results) if r.ok
    )
    print(f"labels: {[r.label for r in results]} | "
          f"failed {len(failed)}/{len(results)} | cleartext agreement: "
          f"{'OK' if agree else 'MISMATCH'}")
    if failed:
        kinds = sorted({f"{r.error_type}/{r.error_category}" for r in failed})
        print(f"failures: {', '.join(kinds)}")
    signal.signal(signal.SIGTERM, previous)
    service.close()
    final = service.stats
    print(f"drain: drained {final['drained_requests']} | aborted "
          f"{final['aborted_requests']}")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DeepSecure reproduction harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="one live private inference").set_defaults(
        func=_cmd_demo
    )

    from .engine import available_backends
    from .gc.cipher import KDF_BACKENDS
    from .nn.quantize import ACTIVATION_VARIANTS

    infer = sub.add_parser(
        "infer", help="live private inference through any engine backend"
    )
    infer.add_argument("-b", "--backend", default="two_party",
                       choices=available_backends(),
                       help="execution flow (repro.engine registry)")
    infer.add_argument("--activation", default="exact",
                       choices=ACTIVATION_VARIANTS,
                       help="Table 3 activation realization")
    infer.add_argument("-n", "--samples", type=int, default=1,
                       help="number of samples to serve")
    infer.add_argument("--transport", default=None,
                       choices=("memory", "socket"),
                       help="frame transport: in-process deques or the "
                            "wire codec over kernel sockets (default: "
                            "REPRO_TRANSPORT env, else memory)")
    infer.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="run each inference as a split session "
                            "against a `worker` process (garbler here, "
                            "evaluator there); requires --transport "
                            "socket and backend two_party")
    infer.set_defaults(func=_cmd_infer)

    worker = sub.add_parser(
        "worker", help="host the evaluator side of the protocol on TCP"
    )
    worker.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback)")
    worker.add_argument("--port", type=int, default=0,
                        help="bind port (0 picks a free port; see "
                             "--port-file)")
    worker.add_argument("--port-file", default=None, metavar="PATH",
                        help="write `host port` here once listening "
                             "(front-end discovery for scripted runs)")
    worker.add_argument("--once", action="store_true",
                        help="exit after the first connection ends")
    worker.add_argument("--pool", type=int, default=0,
                        help="pre-garble this many circuit copies before "
                             "serving (default: 0)")
    worker.add_argument("--activation", default="exact",
                        choices=ACTIVATION_VARIANTS,
                        help="Table 3 activation realization")
    worker.set_defaults(func=_cmd_worker)

    serve = sub.add_parser(
        "serve", help="batch serving with a pre-garbled pool"
    )
    serve.add_argument("-n", "--requests", type=int, default=4,
                       help="requests to serve")
    serve.add_argument("--pool", type=int, default=None,
                       help="pre-garbled pool size (default: = requests; "
                            "0 disables pooling for a cold baseline)")
    serve.add_argument("--kdf-backend", default="fixed_key_aes",
                       choices=sorted(KDF_BACKENDS),
                       help="garbling oracle: fixed_key_aes (default, the "
                            "paper's fixed-key block cipher through "
                            "libcrypto) or the SHA-256 oracle (hashlib); "
                            "peers must agree")
    serve.add_argument("--request-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request deadline: protocol recvs and "
                            "phase boundaries past the budget raise "
                            "DeadlineExceeded (default: unlimited)")
    serve.add_argument("--max-retries", type=int, default=0,
                       help="retry transient wire faults (corruption, "
                            "drops, expired deadlines) up to this many "
                            "times per request (default: 0)")
    serve.add_argument("--fault", action="append", default=None,
                       metavar="KIND:TAG:NTH[:DELAY]",
                       help="inject a deterministic wire fault (chaos "
                            "harness), e.g. corrupt:tables:0 or "
                            "delay:ot:2:30; repeatable")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for fault byte positions / cut points")
    serve.add_argument("--transport", default=None,
                       choices=("memory", "socket"),
                       help="frame transport for the protocol channels "
                            "(default: REPRO_TRANSPORT env, else memory)")
    serve.add_argument("--shards", type=int, default=0,
                       help="partition the batch across this many worker "
                            "processes, each with its own pre-garbled "
                            "pool shard (0 = single process)")
    serve.add_argument("--max-inflight", type=int, default=0,
                       help="admission-control budget: shed requests with "
                            "ServiceOverloadedError once this many are "
                            "in flight (0 = unbounded)")
    serve.add_argument("--kill-shard", default=None, metavar="INDEX[:DELAY]",
                       help="chaos: SIGKILL the given shard worker DELAY "
                            "seconds (default 0.5) into the first batch, "
                            "then prove the supervisor heals it "
                            "(requires --shards)")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
