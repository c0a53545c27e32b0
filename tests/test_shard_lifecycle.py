"""Model-based test of the sharded tier's one state machine.

:class:`ShardedService` runs over in-memory worker links instead of forked
processes: each :class:`FakeLink` is the front-end's end of a socket
that decodes the control records written to it with the real codec and
answers them as the test scripts — correctly, late (after the caller's
timeout, so a reused link would read the stale reply next), cut off,
with a bad frame, with an ``ok: false`` reply, or with a reply the
front-end cannot parse.  Hypothesis drives batches, stats snapshots,
out-of-band crashes, broken forks and healing passes
(``ShardedService.check_once``) on a fake clock, and checks after every
step that:

- consecutive failed restarts of a shard never exceed ``max_restarts``;
- ``failed`` is terminal;
- a chunk is routed only to an ``alive`` shard;
- no RPC is ever made on a retired link, and a retired link is reaped;
- every slot echoes its own request id, with its label or a typed error.
"""

from __future__ import annotations

import dataclasses
import socket
import uuid
from collections import deque
from typing import Any, Dict, List

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.service import InferenceResult
from repro.transport import ShardedService, ctl_channel, recv_ctl, send_ctl
from repro.transport.sharded import RESTART_BACKOFF_CAP_S
from repro.transport.wire import HEADER_SIZE

#: How a scripted worker answers one control record.
REPLY_FAULTS = ("late", "eof", "bad_frame", "not_ok", "garbled")

#: What a failed slot may carry: the typed errors of a failed shard RPC
#: (or of no shard being alive), and of a sample that is no vector.
TYPED_ERRORS = {
    "ChannelClosedError",
    "ChannelEmptyError",
    "ChannelIntegrityError",
    "ProtocolError",
}


def label_of(sample: List[float]) -> int:
    return int(sample[0]) % 7


class _Pipe:
    """The scripted worker's socket: it reads what the front-end sent and
    collects what the worker writes, so the worker's control channel
    keeps real sequence numbers."""

    def __init__(self) -> None:
        self.inbound = bytearray()
        self.outbound = bytearray()

    def settimeout(self, timeout: Any) -> None:
        pass

    def recv(self, n: int) -> bytes:
        chunk = bytes(self.inbound[:n])
        del self.inbound[:n]
        return chunk

    def sendall(self, data: bytes) -> None:
        self.outbound += data


class FakeProcess:
    """A worker process that is alive until it crashes or is killed."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.running = True
        self.exitcode = None

    def is_alive(self) -> bool:
        return self.running

    def kill(self) -> None:
        self.running = False

    def join(self, timeout: Any = None) -> None:
        if not self.running and self.exitcode is None:
            self.exitcode = -9


class FakeLink:
    """The front-end's end of one worker's socket, answered as scripted."""

    def __init__(self, machine: "ShardMachine", index: int, process: FakeProcess) -> None:
        self.machine = machine
        self.index = index
        self.process = process
        self.script: deque = deque()
        self.sent = 0  # control records received from the front-end
        self.replies: deque = deque()  # (answers record #, bytes), in order
        self.reading = bytearray()  # the rest of the reply being read
        self.late = None  # a reply that arrives after the caller gave up
        self.closed = False
        self.pipe = _Pipe()
        self.worker = ctl_channel(self.pipe, "b2a")  # type: ignore[arg-type]

    def _check_open(self, what: str) -> None:
        if self.closed:
            self.machine.violations.append(f"{what} on a retired link")
            raise OSError("retired link")

    def settimeout(self, timeout: Any) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    def shutdown(self, how: Any) -> None:
        pass

    def encoded(self, record: Any) -> bytes:
        """``record`` as the worker's next control frame."""
        send_ctl(self.worker, record)
        data = bytes(self.pipe.outbound)
        self.pipe.outbound.clear()
        return data

    def sendall(self, data: bytes) -> None:
        self._check_open("send")
        if not self.process.running:
            raise BrokenPipeError
        self.pipe.inbound += data
        record = recv_ctl(self.worker)
        self.machine.on_rpc(self, record)
        self.sent += 1
        fault = self.script.popleft() if self.script else None
        reply = self._reply(record, fault)
        if fault == "eof":
            self.process.running = False  # died mid-request
        elif fault == "bad_frame":
            self.replies.append((self.sent, bytes(HEADER_SIZE)))
        elif fault == "late":
            self.late = (self.sent, self.encoded(reply))
        else:
            self.replies.append((self.sent, self.encoded(reply)))
        if record["op"] == "shutdown":
            self.process.running = False

    def recv(self, n: int) -> bytes:
        self._check_open("recv")
        if self.late is not None:
            # the caller times out; the reply lands right after
            self.replies.append(self.late)
            self.late = None
            raise socket.timeout
        if not self.reading:
            if not self.replies:
                if self.process.running:  # a worker with nothing to say
                    raise socket.timeout
                return b""
            answers, data = self.replies.popleft()
            if answers != self.sent:
                self.machine.violations.append(
                    f"the reply to record {answers} read as the answer "
                    f"to record {self.sent}"
                )
            self.reading = bytearray(data)
        chunk = bytes(self.reading[:n])
        del self.reading[:n]
        return chunk

    @staticmethod
    def _reply(record: Dict[str, Any], fault: Any) -> Any:
        op = record["op"]
        if fault == "not_ok":
            return {"ok": False, "op": op, "error": "scripted"}
        garbled = fault == "garbled"
        if op == "infer":
            results = [
                dataclasses.asdict(InferenceResult(
                    label=label_of(sample), comm_bytes=0, times={},
                    n_non_xor=0, backend="two_party", request_id=request_id,
                ))
                for sample, request_id in zip(record["samples"], record["request_ids"])
            ]
            return {"ok": True, "op": op, "results": results[garbled:]}
        if op == "stats":
            return {"ok": True, "op": op} if garbled else {
                "ok": True, "op": op, "stats": {"requests": 0}
            }
        if op == "prepare":
            return {"ok": True, "op": op, "warmed": "many" if garbled else 1}
        return [] if garbled else {"ok": True, "op": "pong"}


def link_of(shard: Any) -> FakeLink:
    """The fake socket under a shard's control channel."""
    return shard.ctl._sock


class FakeFleet(ShardedService):
    """A front-end whose workers are the machine's in-memory links."""

    def __init__(self, machine: "ShardMachine", **kwargs: Any) -> None:
        self._machine = machine
        machine.fleet = self  # the links check RPCs from the first prepare on
        super().__init__(lambda: None, probe_interval_s=3600.0, **kwargs)
        self._stop_healing()  # the machine drives check_once itself

    def _spawn_worker(self, index: int):
        return self._machine.spawn(index)


SHARD = st.integers(0, 2)
CLOCK_STEPS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
BACKOFF_S = 0.25


class ShardMachine(RuleBasedStateMachine):
    @initialize(
        shards=st.integers(1, 3),
        max_restarts=st.integers(0, 2),
        prepare=st.integers(0, 1),
    )
    def build(self, shards, max_restarts, prepare):
        self.violations: List[str] = []
        self.spawn_faults: deque = deque()
        self.pids = 0
        self.now = 0.0
        self.batches = 0
        self.max_restarts = max_restarts
        self.spawned = set()  # shards forked since the last healing pass
        self.fleet = FakeFleet(
            self, shards=shards, max_restarts=max_restarts,
            restart_backoff_s=BACKOFF_S,
        )
        self.shards = self.fleet._shards
        if prepare:
            self.fleet.prepare(prepare)
        self.streak = [0] * shards  # consecutive failed restarts
        self.infer_sent = [False] * shards  # a link has taken an infer record
        self.ever_failed = set()
        self.last_states = self.fleet.shard_states()

    def teardown(self):
        if hasattr(self, "fleet"):
            self.fleet.close(drain_timeout_s=0.0)

    # -- the stubs ---------------------------------------------------------

    def spawn(self, index: int):
        self.spawned.add(index)
        fault = self.spawn_faults.popleft() if self.spawn_faults else None
        if fault == "fork_fails":
            raise OSError("fork failed")
        self.pids += 1
        process = FakeProcess(self.pids)
        link = FakeLink(self, index, process)
        if fault is not None:
            link.script.append(fault)  # the new worker's first reply
        return ctl_channel(link), process  # type: ignore[arg-type]

    def on_rpc(self, link: FakeLink, record: Dict[str, Any]) -> None:
        shard = self.fleet._shards[link.index]
        if link_of(shard) is not link:
            self.violations.append(f"{record['op']} on a replaced link")
        allowed = ("restarting",) if record["op"] != "infer" else ()
        if record["op"] == "infer":
            self.infer_sent[link.index] = True
        if shard.state != "alive" and shard.state not in allowed:
            self.violations.append(f"{record['op']} to a {shard.state} shard")

    # -- rules -------------------------------------------------------------

    @rule(index=SHARD, fault=st.sampled_from(REPLY_FAULTS))
    def script_fault(self, index, fault):
        link_of(self.shards[index % len(self.shards)]).script.append(fault)

    @rule(index=SHARD)
    def crash(self, index):
        self.shards[index % len(self.shards)].process.running = False

    @rule(fault=st.sampled_from(("fork_fails",) + REPLY_FAULTS))
    def break_next_fork(self, fault):
        self.spawn_faults.append(fault)

    @rule(n=st.integers(1, 5), bad_sample=st.booleans(), bad_id=st.booleans())
    def serve(self, n, bad_sample, bad_id):
        base = 10 * self.batches
        self.batches += 1
        samples: List[Any] = [[float(base + j)] for j in range(n)]
        if bad_sample:
            samples[-1] = ["not", "numbers"]
        ids: List[Any] = [f"q{base + j}" for j in range(n)]
        if bad_id:
            ids[0] = uuid.UUID(int=base)  # no control record can carry it
        was_alive = set(self.fleet.live_shards())
        at_fault = {  # links whose next RPC is scripted to fail
            s.index for s in self.shards
            if s.alive and (link_of(s).script or not s.process.running)
        }
        none_alive = not was_alive
        results = self.fleet.infer_many(samples, request_ids=ids)
        # a fault of a request retires no link: only the links' own do
        assert was_alive - set(self.fleet.live_shards()) <= at_fault
        assert [r.request_id for r in results] == ids
        for sample, request_id, result in zip(samples, ids, results):
            if sample == ["not", "numbers"] or not isinstance(request_id, str):
                assert result.error_type == "EngineError"
                assert result.error_category == "permanent"
            elif result.ok:
                assert not none_alive
                assert result.label == label_of(sample)
            else:
                assert result.error_type in TYPED_ERRORS

    @rule()
    def stats(self):
        snapshot = self.fleet.stats()
        states = [entry["state"] for entry in snapshot["per_shard"]]
        assert snapshot["live_shards"] == states.count("alive")
        # the worker now on each shard's link, as a chaos drill reads it
        assert [entry["pid"] for entry in snapshot["per_shard"]] == [
            shard.process.pid for shard in self.shards
        ]

    @rule()
    def prepare(self):
        assert 0 <= self.fleet.prepare(1) <= len(self.shards)

    @rule(dt=CLOCK_STEPS)
    def supervise(self, dt):
        self.now += dt
        attempts = [shard.attempts for shard in self.shards]
        self.spawned.clear()
        self.fleet.check_once(self.now)
        for shard in self.shards:
            if shard.index in self.spawned:  # a restart was attempted
                ok = shard.state == "alive"
                self.streak[shard.index] = 0 if ok else self.streak[shard.index] + 1
            count = shard.attempts
            if count > attempts[shard.index]:  # a restart just failed
                delay = min(BACKOFF_S * 2 ** (count - 1), RESTART_BACKOFF_CAP_S)
                assert shard.next_attempt_at == self.now + delay

    # -- invariants --------------------------------------------------------

    @invariant()
    def no_rpc_on_a_retired_link_or_a_shard_not_alive(self):
        assert self.violations == []

    @invariant()
    def infer_sent_is_set_by_the_first_infer_record_on_a_link(self):
        for shard in self.shards:
            assert self.fleet.wait_infer_sent(shard.index, 0) is self.infer_sent[shard.index]

    @invariant()
    def failed_restarts_stay_within_the_budget(self):
        assert max(self.streak) <= self.max_restarts

    @invariant()
    def failed_is_terminal(self):
        for shard in self.shards:
            if shard.index in self.ever_failed:
                assert shard.state == "failed"
            if shard.state == "failed":
                self.ever_failed.add(shard.index)
                assert self.streak[shard.index] == self.max_restarts

    @invariant()
    def a_retired_link_is_closed_reaped_and_announced(self):
        states = self.fleet.shard_states()
        for shard, before, now in zip(self.shards, self.last_states, states):
            assert now in ("alive", "suspect", "failed")  # never stuck
            if now == "alive":
                assert not link_of(shard).closed
            else:
                assert link_of(shard).closed and shard.process.exitcode is not None
            if now == "suspect" and before == "alive":
                assert self.fleet._kicked
        self.fleet._kicked = False
        self.last_states = states


TestShardModel = ShardMachine.TestCase
TestShardModel.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
