"""Tests of the benchmark's own instrument: span arithmetic, patching, percentiles.

Nothing here times anything: spans are built by hand or recorded against
a fake clock.
"""

import json
import pathlib
import threading
import types

import pytest
from layers import METRICS, OP_SPAN, SETUP, WRAPS, layer_metrics, missing_layers
from tracer import Span, Tracer, covered, percentile, resolve, self_times, tail_percentile


def span(id, parent, start, end, name="x", request="op-0", thread="main", attrs=None):
    return Span(id, parent, request, name, start, end, thread, attrs)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_nested(self):
        spans = [span(0, None, 0, 10), span(1, 0, 1, 4), span(2, 1, 2, 3), span(3, 0, 5, 9)]
        assert self_times(spans) == {0: 3, 1: 2, 2: 1, 3: 4}
        assert sum(self_times(spans).values()) == 10  # self times tile the root

    def test_overlapping_children_count_once(self):
        # two threads' children cover [1, 6] of the parent between them
        spans = [span(0, None, 0, 10), span(1, 0, 1, 5, thread="a"), span(2, 0, 3, 6, thread="b")]
        assert self_times(spans)[0] == 5

    def test_child_outlasting_parent_is_clipped(self):
        spans = [span(0, None, 0, 4), span(1, 0, 3, 9, thread="a")]
        assert self_times(spans)[0] == 3

    def test_covered(self):
        assert covered([(5, 7), (0, 2), (1, 3)], 0, 10) == 5
        assert covered([], 0, 10) == 0
        assert covered([(-5, 20)], 0, 10) == 10


class TestRecording:
    def test_parent_stack_and_request(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.request = "op-7"

        def inner():
            clock.now += 2

        def outer():
            clock.now += 1
            traced_inner()
            clock.now += 1

        traced_inner = tracer.wrap(inner, "inner", lambda a, k, r: {"n": 3})
        tracer.wrap(outer, "outer")()
        first, second = tracer.spans
        assert (first.name, first.parent, first.duration) == ("outer", None, 4)
        assert (second.name, second.parent, second.duration) == ("inner", first.id, 2)
        assert second.request == "op-7" and second.attrs == {"n": 3}

    def test_same_name_nesting_is_one_span(self):
        tracer = Tracer(clock=FakeClock())
        base = tracer.wrap(lambda: 1, "kdf")
        derived = tracer.wrap(lambda: base() + 1, "kdf")
        assert derived() == 2
        assert len(tracer.spans) == 1

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def boom():
            clock.now += 1
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap(boom, "boom")()
        assert tracer.spans[0].duration == 1
        with tracer.span("after") as after:
            pass
        assert after.parent is None  # the failed span left the stack

    def test_helper_thread_adopts_the_clients_open_span(self):
        tracer = Tracer(clock=FakeClock())
        traced = tracer.wrap(lambda: None, "rpc")
        with tracer.span("front") as front:
            worker = threading.Thread(target=traced, name="helper")
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()
        rpc = tracer.spans[1]
        assert (rpc.parent, rpc.thread) == (front.id, "helper")

    def test_dump_is_json_lines(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.dump(path)
        (record,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert record["name"] == "a" and set(record) == set(vars(tracer.spans[0]))


class Shape:
    @classmethod
    def build(cls, n):
        return [cls] * n

    @staticmethod
    def unit():
        return 1

    def area(self):
        return 2


class Square(Shape):
    pass


@pytest.fixture
def module(monkeypatch):
    """A throwaway importable module, so that patching never touches ``repro``."""
    fake = types.ModuleType("layered_fake_target")
    fake.Shape, fake.Square, fake.double = Shape, Square, lambda x: 2 * x
    fake.constant = 3
    monkeypatch.setitem(__import__("sys").modules, fake.__name__, fake)
    return fake


class TestInstall:
    def test_patches_by_dotted_name_and_restores(self, module):
        tracer = Tracer(clock=FakeClock())
        original = module.double
        missing = tracer.install(
            [
                ("layered_fake_target.double", "double", None),
                ("layered_fake_target.Shape.area", "area", None),
                ("layered_fake_target.Shape.build", "build", None),
                ("layered_fake_target.Shape.unit", "unit", None),
            ]
        )
        assert missing == []
        assert module.double(4) == 8 and Shape().area() == 2
        assert Square.build(2) == [Square, Square] and Shape.unit() == 1
        assert [s.name for s in tracer.spans] == ["double", "area", "build", "unit"]
        tracer.uninstall()
        assert module.double is original
        assert isinstance(vars(Shape)["build"], classmethod)
        module.double(1)
        assert len(tracer.spans) == 4

    def test_missing_targets_are_reported_not_raised(self, module):
        tracer = Tracer(clock=FakeClock())
        missing = tracer.install(
            [
                ("layered_fake_target.gone", "a", None),
                ("layered_fake_target.Shape.gone", "b", None),
                ("layered_fake_target.Gone.method", "c", None),
                ("no_such_package_xyz.f", "d", None),
                ("layered_fake_target.constant", "e", None),  # not callable
                ("layered_fake_target.Square.area", "f", None),  # inherited, not defined
            ]
        )
        assert len(missing) == 6 and tracer.spans == []

    def test_every_wrap_target_resolves_today(self):
        for dotted, _name, _attrs in WRAPS:
            resolve(dotted)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100
        assert percentile([7], 50) == 7

    def test_p90_of_100_has_ten_beyond(self):
        values = list(range(1, 101))
        assert tail_percentile(values, 90) == 90
        assert sum(v > 90 for v in values) == 10

    def test_tail_refused_with_fewer_than_ten_beyond(self):
        with pytest.raises(ValueError, match="9 beyond"):
            tail_percentile(list(range(99)), 90)
        with pytest.raises(ValueError):
            tail_percentile(list(range(100)), 99)
        assert tail_percentile(list(range(44)), 75) == 32

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 0)


class TestLayerMetrics:
    def test_names_match_the_contract(self):
        root = pathlib.Path(__file__).resolve().parents[2]
        contract = json.loads((root / "BENCHMARK.json").read_text())
        assert contract["per_layer"] == [m.entry() for m in METRICS]
        assert contract["paths"] == ["benchmarks/layered"]

    def test_self_time_per_request_and_setup_inclusive(self):
        spans = [
            span(0, None, 0, 5, "engine.pool.warm", request=SETUP),
            span(1, 0, 1, 4, "gc.cipher.hash_many", request=SETUP, attrs={"rows": 9}),
            span(2, None, 10, 20, OP_SPAN),
            span(3, 2, 10, 20, "service"),
            span(4, 3, 11, 17, "gc.garble.garble"),
            span(5, 4, 12, 14, "gc.cipher.hash_many", attrs={"rows": 40}),
            span(6, 4, 15, 16, "gc.cipher.hash_many", attrs={"rows": 60}),
        ]
        out = layer_metrics(
            spans, scales={}, requests=2, facts={"n_non_xor": 5}, finish={"retries": 1, "shed": 0},
            reported_s=0.0, traced_p50=1.1, untraced_p50=1.0,
        )
        assert set(out) == {m.name for m in METRICS}
        assert out["engine.pool.warm_s"] == 5  # inclusive, per set-up
        assert out["gc.garble.garble_s"] == 1.5  # (6 - 3) / 2 requests
        assert out["gc.cipher.hash_many_s"] == 1.5
        assert out["gc.cipher.hash_rows"] == 50 and out["gc.cipher.hash_calls"] == 1
        assert out["gc.cipher.rows_per_s"] == pytest.approx(100 / 3)
        assert out["service.self_s"] == 2
        assert out["compile.n_non_xor"] == 5 and out["service.retries"] == 1
        assert out["trace.unaccounted_frac"] == 0
        assert out["trace.overhead_frac"] == pytest.approx(0.1)
        assert out["gc.ot.modexps"] == 0  # a layer the workload never entered

    def test_sharded_wait_is_opaque_and_skew_is_per_operation(self):
        spans = [
            span(0, None, 0, 10, OP_SPAN),
            span(1, 0, 0, 10, "transport.sharded.front"),
            span(2, 1, 1, 9, "transport.sharded.rpc", thread="front-0"),
            span(3, 1, 1, 5, "transport.sharded.rpc", thread="front-1"),
        ]
        out = layer_metrics(
            spans, scales={}, requests=8, facts={}, finish={"retries": 0, "shed": 0},
            reported_s=4.0, traced_p50=1.0, untraced_p50=1.0,
        )
        assert out["transport.sharded.rpc_s"] == 1  # 8 covered seconds / 8 requests
        assert out["transport.sharded.front_self_s"] == 0.25
        assert out["transport.sharded.in_shard_s"] == 0.5
        assert out["transport.sharded.shard_skew_frac"] == 0.5
        assert out["trace.unaccounted_frac"] == 0.8

    def test_missing_layers_names_metrics_left_without_a_wrap(self):
        assert missing_layers([]) == []
        gone = [d for d, name, _ in WRAPS if name == "gc.cipher.calibrate"]
        assert missing_layers(gone) == ["gc.cipher.calibrate_s"]
        # one of three importing sites gone: the layer is still visible
        assert missing_layers(["repro.gc.protocol.extension_ot"]) == []
