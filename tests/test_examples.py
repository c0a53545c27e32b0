"""Smoke tests: every shipped example must run end to end, verbatim.

The quickstart uses the production 2048-bit OT group: two base-OT
batches, ~1.3 s each where the group's modular exponentiation runs in
libcrypto.  On a host where it falls back to Python's ``pow`` (~15 s per
batch) the verbatim run is skipped; its flow stays covered with the fast
test group by ``test_quickstart_pieces``.
"""

import importlib.util
import pathlib

import pytest

from repro.gc.ot import MODP_2048


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_private_medical_audio(self, capsys):
        _load("private_medical_audio").main()
        out = capsys.readouterr().out
        assert "pre-processing" in out and "GC label" in out

    def test_streaming_smart_sensing(self, capsys):
        _load("streaming_smart_sensing").main()
        out = capsys.readouterr().out
        assert "crossover" in out.lower() or "DeepSecure" in out

    def test_constrained_wearable_outsourcing(self, capsys):
        _load("constrained_wearable_outsourcing").main()
        out = capsys.readouterr().out
        assert "outsourced" in out and "Prop. 3.2" in out

    def test_netlist_interop(self, capsys, monkeypatch, tmp_path):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        _load("netlist_interop").main()
        out = capsys.readouterr().out
        assert "Bristol" in out and "Verilog" in out
        assert list(tmp_path.iterdir()) == []  # the exports are cleaned up

    @pytest.mark.skipif(
        MODP_2048.provider != "libcrypto",
        reason="MODP-2048 on the pow fallback is not tier-1 material",
    )
    def test_quickstart(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "pre-garbled: True" in out and "-> MATCH" in out

    def test_quickstart_pieces(self, capsys):
        """The quickstart flow with the fast OT group (same code path,
        test-grade group parameters): cold run, pre-garbled run, and a
        second backend, all through the engine-configured service."""
        import random

        import numpy as np

        from repro.circuits import FixedPointFormat
        from repro.engine import EngineConfig
        from repro.gc.ot import TEST_GROUP_512
        from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer
        from repro.service import PrivateInferenceService

        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(300, 12))
        w = rng.normal(size=(12, 4))
        y = (x @ w).argmax(axis=1)
        model = Sequential([Dense(8), Tanh(), Dense(4)], input_shape=(12,), seed=1)
        Trainer(model, TrainConfig(epochs=20, learning_rate=0.2)).fit(x, y)
        service = PrivateInferenceService(model, EngineConfig(
            fmt=FixedPointFormat(2, 6),
            activation="exact",
            ot_group=TEST_GROUP_512,
            rng=random.Random(42),
        ))
        expected = service.cleartext_label(x[0])

        cold = service.infer(x[0])
        assert cold.label == expected and not cold.pregarbled

        service.prepare(1)
        warm = service.infer(x[0])
        assert warm.label == expected and warm.pregarbled
        assert warm.times["garble"] < cold.times["garble"]

        outsourced = service.infer(x[0], backend="outsourced")
        assert outsourced.label == expected
