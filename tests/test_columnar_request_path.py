"""What a request touches now that a netlist is columns.

* No request reads a :class:`repro.circuits.Gate`: with the gate view
  made to raise, every serving path still answers.  Requests read the
  cached level schedule and the columns only.
* ``import repro.service`` loads the engine it serves with, not the
  paper's exhibits (analysis, baselines, the benchmark zoo).
"""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.circuits import FixedPointFormat
from repro.circuits.netlist import GateView
from repro.compile import folded_mac_cell, run_folded_dense
from repro.engine import EngineConfig
from repro.gc.ot import TEST_GROUP_512
from repro.nn import Dense, Sequential, Tanh
from repro.service import PrivateInferenceService

FMT = FixedPointFormat(2, 6)


@pytest.fixture
def no_gate_reads(monkeypatch):
    """From here on, reading a ``Gate`` off any circuit fails."""

    def refuse(self, *args):
        raise AssertionError("a request read a Gate")

    def patch():
        # iteration is the view's one way to read a Gate
        monkeypatch.setattr(GateView, "__iter__", refuse)

    return patch


@pytest.fixture
def service_factory():
    model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(5,), seed=3)
    samples = np.random.default_rng(3).uniform(-1, 1, size=(3, 5))
    services = []

    def make(**overrides):
        config = EngineConfig(
            fmt=FMT, activation="exact", ot_group=TEST_GROUP_512,
            rng=random.Random(7), pool_refill="none", **overrides,
        )
        service = PrivateInferenceService(model, config)
        services.append(service)
        return service

    yield make, samples
    for service in services:
        service.close()


class TestNoRequestReadsAGate:
    def test_cold_infer(self, service_factory, no_gate_reads):
        make, samples = service_factory
        service = make()
        expected = service.cleartext_label(samples[0])
        no_gate_reads()
        assert service.infer(samples[0]).label == expected

    def test_pooled_infer_many_over_sockets(
        self, service_factory, no_gate_reads
    ):
        make, samples = service_factory
        service = make(transport="socket", pool_size=3)
        service.prepare()
        expected = [service.cleartext_label(s) for s in samples]
        no_gate_reads()
        results = service.infer_many(list(samples))
        assert [r.label for r in results] == expected
        assert all(r.pregarbled for r in results)

    def test_cut_and_choose(self, service_factory, no_gate_reads):
        make, samples = service_factory
        service = make(backend="cut_and_choose")
        expected = service.cleartext_label(samples[1])
        no_gate_reads()
        assert service.infer(samples[1]).label == expected

    def test_run_folded_dense(self, no_gate_reads):
        rng = np.random.default_rng(0)
        x = FMT.encode_array(rng.uniform(-1, 1, size=5))
        w = FMT.encode_array(rng.uniform(-1, 1, size=(5, 2)))
        folded_mac_cell(FMT, fan_in=5)  # compiled (and cached) up front
        no_gate_reads()
        result = run_folded_dense(
            list(x), w, FMT, ot_group=TEST_GROUP_512, rng=random.Random(1)
        )
        assert len(result.outputs) == 2


def test_import_service_leaves_exhibits_unloaded():
    code = (
        "import json, sys\n"
        "import repro.service\n"
        "loaded = [m for m in ('repro.analysis', 'repro.baselines', "
        "'repro.zoo') if m in sys.modules]\n"
        "import repro.zoo\n"
        "print(json.dumps([loaded, callable(repro.zoo.build_service)]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert json.loads(out) == [[], True]
