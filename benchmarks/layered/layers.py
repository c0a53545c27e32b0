"""Where the tracer cuts into the program, and what it reports per layer.

A layer is a module under ``src/repro``.  :data:`WRAPS` names the public
callables the tracer wraps, by dotted path at every importing site;
:data:`METRICS` turns the recorded spans into the per-layer metrics of
``BENCHMARK.json`` (same names, same order).

Two rules cover almost every metric:

* an **operation-phase** metric is the layer's *self* time (or a count
  read at its boundary) summed over the traced operations and divided by
  the requests they carried;
* a **set-up-phase** metric is the *inclusive* time of the layer's spans
  between process start and the end of the warm-up operation, because
  the question there is "what did set-up pay for this".

The rest are ratios and are computed in :func:`layer_metrics`.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracer import Span, Target, self_times

__all__ = ["METRICS", "OP_SPAN", "SETUP", "WRAPS", "layer_metrics", "missing_layers"]

#: request id of every span recorded before the first timed operation
SETUP = "setup"
#: the span the benchmark itself opens around each operation
OP_SPAN = "op"
#: spans that only wait for another process; what happens meanwhile is
#: invisible from here, so their time is never "accounted"
OPAQUE = ("transport.sharded.rpc",)


def _argument(args: tuple, kwargs: dict, index: int, name: str, default: Any) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _rows(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"rows": int(_argument(args, kwargs, 1, "rows", ()).shape[0])}


def _copies_returned(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"copies": len(result)}


def _copies_held(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"copies": args[0].copies}


def _one_circuit(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"circuits": 1}


def _circuits_stacked(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"circuits": len(_argument(args, kwargs, 1, "garbled_list", ()))}


def _choice_bits(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"bits": len(_argument(args, kwargs, 1, "choices", ()))}


def _cycles(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"cycles": len(result.outputs_per_cycle)}


def _frame_sent(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    # payload + the 4-byte length prefix: what ChannelStats charges
    return {
        "bytes": len(_argument(args, kwargs, 1, "data", b"")) + 4,
        "tag": _argument(args, kwargs, 2, "tag", "data"),
    }


def _pool_hit(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"hit": int(result is not None)}


def _each(dotted: Sequence[str], name: str, attrs: Any = None) -> List[Target]:
    """One target per dotted path, all recording spans of the same name."""
    return [(path, name, attrs) for path in dotted]


WRAPS: List[Target] = [
    # -- set-up side ------------------------------------------------------
    ("repro.nn.train.Trainer.fit", "nn.train", None),
    ("repro.nn.quantize.QuantizedModel.__init__", "nn.quantize", None),
    *_each(
        ("repro.compile.compiler.compile_model", "repro.service.compile_model"),
        "compile.compile_model",
    ),
    ("repro.compile.folded.folded_mac_cell", "compile.folded_cell", None),
    ("repro.circuits.netlist.LevelSchedule.build", "circuits.level_schedule", None),
    ("repro.gc.cipher.calibrate_kdf", "gc.cipher.calibrate", None),
    # -- garbling engine --------------------------------------------------
    ("repro.gc.garble.Garbler.garble", "gc.garble.garble", None),
    *_each(
        (
            "repro.gc.fastgarble.garble_many",
            "repro.gc.protocol.garble_many",
            "repro.gc.cutandchoose.garble_many",
        ),
        "gc.fastgarble.garble_many",
        _copies_returned,
    ),
    ("repro.gc.fastgarble.FastEvaluator.evaluate", "gc.fastgarble.evaluate", _one_circuit),
    (
        "repro.gc.fastgarble.FastEvaluator.evaluate_many",
        "gc.fastgarble.evaluate_many",
        _circuits_stacked,
    ),
    *_each(
        (
            "repro.gc.cipher.HashKDF.hash_many",
            "repro.gc.cipher.VectorHashKDF.hash_many",
            "repro.gc.cipher.AutoHashKDF.hash_many",
            "repro.gc.cipher.FixedKeyAES.hash_many",
            "repro.gc.cipher.ParallelKDF.hash_many",
        ),
        "gc.cipher.hash_many",
        _rows,
    ),
    # -- oblivious transfer -----------------------------------------------
    ("repro.gc.ot.OTSender.setup", "gc.ot.base.setup", None),
    ("repro.gc.ot.OTSender.respond", "gc.ot.base.respond", None),
    ("repro.gc.ot.OTReceiver.public_keys", "gc.ot.base.public_keys", None),
    ("repro.gc.ot.OTReceiver.recover", "gc.ot.base.recover", None),
    ("repro.gc.ot.OTGroup.power", "gc.ot.modexp", None),
    *_each(
        (
            "repro.gc.ot_extension.extension_ot",
            "repro.gc.protocol.extension_ot",
            "repro.gc.sequential.extension_ot",
        ),
        "gc.ot_extension",
        _choice_bits,
    ),
    # -- sessions ---------------------------------------------------------
    *_each(
        (
            "repro.gc.protocol.transfer_input_labels",
            "repro.engine.backends.transfer_input_labels",
        ),
        "gc.protocol.transfer_input_labels",
    ),
    *_each(
        (
            "repro.gc.protocol.TwoPartySession.run",
            "repro.gc.protocol.TwoPartySession.run_many",
            "repro.gc.protocol.TwoPartySession.pregarble_many",
        ),
        "gc.protocol.session",
    ),
    ("repro.gc.sequential.SequentialSession.run", "gc.sequential", _cycles),
    *_each(
        (
            "repro.gc.cutandchoose.verify_opened_copy",
            "repro.engine.backends.verify_opened_copy",
        ),
        "gc.cutandchoose.verify",
    ),
    (
        "repro.gc.cutandchoose.CutAndChooseGarbler.__init__",
        "gc.cutandchoose.garbler",
        _copies_held,
    ),
    # -- channel, wire codec, socket ---------------------------------------
    ("repro.gc.channel.Channel.send_bytes", "gc.channel.send", _frame_sent),
    ("repro.gc.channel.Channel.recv_bytes", "gc.channel.recv", None),
    *_each(
        (
            "repro.transport.wire.encode_frame",
            "repro.transport.socket_channel.encode_frame",
        ),
        "transport.wire.encode",
    ),
    ("repro.transport.wire.FrameDecoder.feed", "transport.wire.decode", None),
    # the two seams Channel documents for transports to override
    *_each(
        (
            "repro.transport.socket_channel.SocketChannel._dispatch",
            "repro.transport.socket_channel.SocketChannel._fetch",
        ),
        "transport.socket_channel.io",
    ),
    # -- engine and service -------------------------------------------------
    ("repro.engine.pool.PregarbledPool.acquire", "engine.pool.acquire", _pool_hit),
    ("repro.engine.pool.PregarbledPool.warm", "engine.pool.warm", None),
    *_each(
        (
            "repro.engine.backends.TwoPartyBackend.run",
            "repro.engine.backends.TwoPartyBackend.run_many",
            "repro.engine.backends.CutAndChooseBackend.run",
        ),
        "engine.backends.run",
    ),
    *_each(
        (
            "repro.service.PrivateInferenceService.infer",
            "repro.service.PrivateInferenceService.infer_many",
            "repro.service.PrivateInferenceService.execute",
        ),
        "service",
    ),
    # -- sharded front-end ---------------------------------------------------
    ("repro.transport.sharded.ShardedService.infer_many", "transport.sharded.front", None),
    # the front-end's own bindings; the worker's stay unwrapped
    *_each(
        ("repro.transport.sharded.send_ctl", "repro.transport.sharded.recv_ctl"),
        "transport.sharded.rpc",
    ),
]


@dataclasses.dataclass(frozen=True)
class Metric:
    """One per-layer metric: its ``BENCHMARK.json`` entry and its source.

    ``source`` is ``"self"`` (self seconds per request), ``"count"``
    (spans per request), an attribute key (its sum per request),
    ``"setup"`` (inclusive seconds during set-up) or ``"derived"``.
    """

    name: str
    unit: str
    better: str
    source: str
    spans: Tuple[str, ...] = ()

    def entry(self) -> Dict[str, str]:
        return {"name": self.name, "unit": self.unit, "better": self.better}


_BASE_OT = (
    "gc.ot.base.setup", "gc.ot.base.respond", "gc.ot.base.public_keys", "gc.ot.base.recover",
)
_EVALUATE = ("gc.fastgarble.evaluate", "gc.fastgarble.evaluate_many")
_CHANNEL = ("gc.channel.send", "gc.channel.recv")

METRICS: List[Metric] = [
    Metric("nn.train_quantize_s", "s", "lower", "setup", ("nn.train", "nn.quantize")),
    Metric("compile.compile_model_s", "s", "lower", "setup", ("compile.compile_model",)),
    Metric("circuits.level_schedule_s", "s", "lower", "setup", ("circuits.level_schedule",)),
    Metric("gc.cipher.calibrate_s", "s", "lower", "setup", ("gc.cipher.calibrate",)),
    Metric("engine.pool.warm_s", "s", "lower", "setup", ("engine.pool.warm",)),
    Metric("compile.folded_cell_s", "s", "lower", "self", ("compile.folded_cell",)),
    Metric("compile.n_non_xor", "count", "lower", "derived"),
    Metric("compile.n_xor", "count", "lower", "derived"),
    Metric("compile.levels", "count", "lower", "derived"),
    Metric("gc.garble.garble_s", "s", "lower", "self", ("gc.garble.garble",)),
    Metric("gc.garble.calls", "count", "lower", "count", ("gc.garble.garble",)),
    Metric("gc.fastgarble.garble_many_s", "s", "lower", "self", ("gc.fastgarble.garble_many",)),
    Metric("gc.fastgarble.copies", "count", "lower", "copies", ("gc.fastgarble.garble_many",)),
    Metric("gc.fastgarble.evaluate_s", "s", "lower", "self", _EVALUATE[:1]),
    Metric("gc.fastgarble.evaluate_many_s", "s", "lower", "self", _EVALUATE[1:]),
    Metric("gc.fastgarble.evaluate_calls", "count", "lower", "count", _EVALUATE),
    Metric("gc.fastgarble.gates_per_s", "1/s", "higher", "derived"),
    Metric("gc.cipher.hash_many_s", "s", "lower", "self", ("gc.cipher.hash_many",)),
    Metric("gc.cipher.hash_rows", "count", "lower", "rows", ("gc.cipher.hash_many",)),
    Metric("gc.cipher.hash_calls", "count", "lower", "count", ("gc.cipher.hash_many",)),
    Metric("gc.cipher.rows_per_s", "1/s", "higher", "derived"),
    Metric("gc.ot.base_s", "s", "lower", "self", _BASE_OT),
    Metric("gc.ot.base_batches", "count", "lower", "count", _BASE_OT[:1]),
    Metric("gc.ot.modexps", "count", "lower", "count", ("gc.ot.modexp",)),
    Metric("gc.ot.modexp_s", "s", "lower", "self", ("gc.ot.modexp",)),
    Metric("gc.ot_extension.self_s", "s", "lower", "self", ("gc.ot_extension",)),
    Metric("gc.ot_extension.calls", "count", "lower", "count", ("gc.ot_extension",)),
    Metric("gc.ot_extension.choice_bits", "count", "lower", "bits", ("gc.ot_extension",)),
    Metric(
        "gc.protocol.transfer_input_labels_s", "s", "lower", "self",
        ("gc.protocol.transfer_input_labels",),
    ),
    Metric("gc.protocol.session_self_s", "s", "lower", "self", ("gc.protocol.session",)),
    Metric("gc.sequential.self_s", "s", "lower", "self", ("gc.sequential",)),
    Metric("gc.sequential.cycles", "count", "lower", "cycles", ("gc.sequential",)),
    Metric("gc.cutandchoose.verify_s", "s", "lower", "self", ("gc.cutandchoose.verify",)),
    Metric("gc.cutandchoose.copies", "count", "lower", "copies", ("gc.cutandchoose.garbler",)),
    Metric("gc.channel.io_s", "s", "lower", "self", _CHANNEL),
    Metric("gc.channel.frames", "count", "lower", "count", _CHANNEL[:1]),
    Metric("gc.channel.bytes", "bytes", "lower", "bytes", _CHANNEL[:1]),
    Metric("transport.wire.encode_s", "s", "lower", "self", ("transport.wire.encode",)),
    Metric("transport.wire.decode_s", "s", "lower", "self", ("transport.wire.decode",)),
    Metric("transport.wire.frames", "count", "lower", "count", ("transport.wire.encode",)),
    Metric(
        "transport.socket_channel.io_self_s", "s", "lower", "self",
        ("transport.socket_channel.io",),
    ),
    Metric("engine.pool.hit_frac", "ratio", "higher", "derived"),
    Metric("engine.pool.acquire_s", "s", "lower", "self", ("engine.pool.acquire",)),
    Metric("engine.backends.run_self_s", "s", "lower", "self", ("engine.backends.run",)),
    Metric("service.self_s", "s", "lower", "self", ("service",)),
    Metric("service.retries", "count", "lower", "derived"),
    Metric("service.shed", "count", "lower", "derived"),
    Metric("transport.sharded.rpc_s", "s", "lower", "derived"),
    Metric("transport.sharded.in_shard_s", "s", "lower", "derived"),
    Metric("transport.sharded.front_self_s", "s", "lower", "self", ("transport.sharded.front",)),
    Metric("transport.sharded.shard_skew_frac", "ratio", "lower", "derived"),
    Metric("trace.unaccounted_frac", "ratio", "lower", "derived"),
    Metric("trace.overhead_frac", "ratio", "lower", "derived"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _shard_skew(rpc_spans: Sequence[Span]) -> float:
    """Median over operations of (slowest - fastest chunk) / slowest.

    A chunk is what one front-end thread spent from its first control
    frame out to its last one back.
    """
    chunks: Dict[Tuple[Optional[str], str], List[float]] = {}
    for span in rpc_spans:
        bounds = chunks.setdefault((span.request, span.thread), [span.start, span.end])
        bounds[0] = min(bounds[0], span.start)
        bounds[1] = max(bounds[1], span.end)
    per_op: Dict[Optional[str], List[float]] = {}
    for (request, _thread), (start, end) in chunks.items():
        per_op.setdefault(request, []).append(end - start)
    skews = [
        (max(times) - min(times)) / max(times)
        for times in per_op.values()
        if len(times) > 1 and max(times) > 0
    ]
    return statistics.median(skews) if skews else 0.0


def layer_metrics(
    spans: Sequence[Span],
    scales: Dict[str, float],
    requests: int,
    facts: Dict[str, float],
    finish: Dict[str, Any],
    reported_s: float,
    traced_p50: float,
    untraced_p50: float,
) -> Dict[str, float]:
    """Every metric of :data:`METRICS`, 0 where the workload never enters the layer.

    Args:
        spans: everything the tracer recorded.
        scales: per operation's request id, the factor that turns its
            clock seconds into reference seconds (:mod:`hostspeed`);
            set-up spans stay in clock seconds, like ``setup_s``.
        requests: requests carried by the traced operations.
        facts: circuit counts the workload can see (may be empty).
        finish: the workload's end-of-run counters (``retries``, ``shed``).
        reported_s: sum of the program's own per-request phase timers.
        traced_p50 / untraced_p50: median operation time with and
            without the wraps installed, from the same process.
    """
    own = self_times(spans)

    def self_s(span: Span) -> float:
        return own[span.id] * scales.get(span.request, 1.0)

    def whole(span: Span) -> float:
        return span.duration * scales.get(span.request, 1.0)

    ops = [s for s in spans if s.request != SETUP and s.request is not None]
    by_name: Dict[Tuple[bool, str], List[Span]] = {}
    for span in spans:
        if span.request is not None:
            by_name.setdefault((span.request == SETUP, span.name), []).append(span)

    def pick(names: Sequence[str], setup: bool = False) -> List[Span]:
        return [s for name in names for s in by_name.get((setup, name), ())]

    def attr_sum(selected: Sequence[Span], key: str) -> float:
        return sum((s.attrs or {}).get(key, 0) for s in selected)

    out: Dict[str, float] = {}
    for metric in METRICS:
        selected = pick(metric.spans)
        if metric.source == "self":
            out[metric.name] = sum(self_s(s) for s in selected) / requests
        elif metric.source == "count":
            out[metric.name] = len(selected) / requests
        elif metric.source == "setup":
            out[metric.name] = sum(whole(s) for s in pick(metric.spans, setup=True))
        elif metric.source != "derived":
            out[metric.name] = attr_sum(selected, metric.source) / requests

    out["compile.n_non_xor"] = facts.get("n_non_xor", 0)
    out["compile.n_xor"] = facts.get("n_xor", 0)
    out["compile.levels"] = facts.get("levels", 0)
    evaluations = pick(_EVALUATE)
    out["gc.fastgarble.gates_per_s"] = _ratio(
        (out["compile.n_non_xor"] + out["compile.n_xor"])
        * attr_sum(evaluations, "circuits"),
        sum(whole(s) for s in evaluations),
    )
    hashes = pick(("gc.cipher.hash_many",))
    out["gc.cipher.rows_per_s"] = _ratio(
        attr_sum(hashes, "rows"), sum(whole(s) for s in hashes)
    )
    acquires = pick(("engine.pool.acquire",))
    out["engine.pool.hit_frac"] = _ratio(attr_sum(acquires, "hit"), len(acquires))
    out["service.retries"] = finish["retries"]
    out["service.shed"] = finish["shed"]

    rpcs = pick(OPAQUE)
    fronts = pick(("transport.sharded.front",))
    # what the front-end spent blocked on its shards: the two RPC threads
    # overlap, so this is the part of each call they cover, not their sum
    out["transport.sharded.rpc_s"] = (
        sum(whole(s) - self_s(s) for s in fronts) / requests
    )
    out["transport.sharded.in_shard_s"] = reported_s / requests if fronts else 0.0
    out["transport.sharded.shard_skew_frac"] = _shard_skew(rpcs)

    roots = pick((OP_SPAN,))
    accounted = sum(
        self_s(s) for s in ops if s.name != OP_SPAN and s.name not in OPAQUE
    )
    out["trace.unaccounted_frac"] = 1.0 - _ratio(
        accounted, sum(whole(s) for s in roots)
    )
    out["trace.overhead_frac"] = _ratio(traced_p50, untraced_p50) - 1.0
    return out


def missing_layers(missing_targets: Sequence[str]) -> List[str]:
    """Metrics left without any wrap: every target of their spans is gone."""
    gone = set(missing_targets)
    live = {name for dotted, name, _attrs in WRAPS if dotted not in gone}
    return [
        metric.name
        for metric in METRICS
        if metric.spans and not live.intersection(metric.spans)
    ]
