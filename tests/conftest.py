"""Shared fixtures: deterministic RNGs, small formats, tiny trained models."""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest

from repro.circuits import FixedPointFormat
from repro.gc.channel import make_channel_pair
from repro.gc.ot import TEST_GROUP_512, OTSender
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer


@pytest.fixture
def rng():
    """Seeded stdlib RNG for label/OT reproducibility."""
    return random.Random(0xDEE9)


@pytest.fixture
def nprng():
    """Seeded numpy generator."""
    return np.random.default_rng(2018)


@pytest.fixture
def fmt16():
    """The paper's 1.3.12 format."""
    return FixedPointFormat(3, 12)


@pytest.fixture
def fmt9():
    """Small 1.2.6 format for fast LUT circuits."""
    return FixedPointFormat(2, 6)


@pytest.fixture
def ot_group():
    """Fast OT group for tests."""
    return TEST_GROUP_512


@pytest.fixture(scope="session")
def tiny_model():
    """A trained 12-8-4 tanh classifier on a separable task."""
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(500, 12))
    w = rng.normal(size=(12, 4))
    y = (x @ w).argmax(axis=1)
    model = Sequential([Dense(8), Tanh(), Dense(4)], input_shape=(12,), seed=1)
    Trainer(model, TrainConfig(epochs=25, learning_rate=0.2)).fit(x, y)
    return model, x, y


@pytest.fixture
def recording_channels():
    """``(factory, frames)``: an in-memory channel factory for a session's
    ``channel_factory=`` plus the ``(tag, payload)`` of every frame either
    party sends through it, in send order."""
    frames = []

    def factory():
        alice, bob, stats = make_channel_pair()
        for end in (alice, bob):
            def record(frame, dispatch=end._dispatch):
                frames.append((frame.tag, frame.payload))
                dispatch(frame)

            end._dispatch = record
        return alice, bob, stats

    return factory, frames


@pytest.fixture
def base_batches(monkeypatch):
    """A one-element list counting ``OTSender.setup`` calls."""
    calls = [0]
    original = OTSender.setup

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(OTSender, "setup", counting)
    return calls


@pytest.fixture
def in_thread():
    """``in_thread(fn, *args)`` runs ``fn`` on a daemon thread and returns
    ``result(timeout)``: it joins the thread, then returns what ``fn``
    returned or re-raises what it raised."""

    def start(fn, *args):
        outcome = {}

        def run():
            try:
                outcome["value"] = fn(*args)
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()

        def result(timeout=60.0):
            thread.join(timeout)
            assert not thread.is_alive(), f"{fn} still running after {timeout} s"
            if "error" in outcome:
                raise outcome["error"]
            return outcome["value"]

        return result

    return start
