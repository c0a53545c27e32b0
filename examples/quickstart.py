"""Quickstart: private inference through the unified engine API.

Trains a small classifier, wraps it in a :class:`PrivateInferenceService`
configured by a single :class:`EngineConfig`, and serves private
inferences three ways:

1. one cold request through the direct two-party protocol (Fig. 3);
2. the offline/online split — garbling is input-independent (Sec. 3),
   so the service pre-garbles circuits while idle and the online path
   shrinks to transfer + OT + evaluate + merge;
3. the same sample through another registered backend (the XOR-share
   outsourcing flow of Sec. 3.3) — backends are named entries in
   ``repro.engine``'s registry, all behind one ``run()`` contract.

Nobody ever sees the other party's input in any of these flows.

Run:  python examples/quickstart.py
"""

import random
import time

import numpy as np

from repro.circuits import FixedPointFormat
from repro.engine import EngineConfig, available_backends
from repro.gc.ot import MODP_2048
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer
from repro.service import PrivateInferenceService


def main() -> None:
    # 1. train a model (this is the server's private asset)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(600, 12))
    ground_truth = rng.normal(size=(12, 4))
    y = (x @ ground_truth).argmax(axis=1)
    model = Sequential([Dense(8), Tanh(), Dense(4)], input_shape=(12,), seed=1)
    Trainer(model, TrainConfig(epochs=25, learning_rate=0.2)).fit(x, y)
    print(f"trained {model.architecture_string()}: "
          f"train accuracy {(model.predict(x) == y).mean():.3f}")

    # 2. one config drives quantization, compilation and execution
    #    (1 sign + 2 integer + 6 fraction bits keeps this demo's circuit
    #    small; the paper uses 1.3.12.  The 2048-bit OT group is the
    #    honest production parameter: each backend's first request pays
    #    one base-OT batch of 387 modular exponentiations, ~1.3 s where
    #    they run in the system libcrypto and ~15 s on the pure-Python
    #    fallback.)
    #
    #    Nothing to set for the pre-garbled pool: once drawn from, it
    #    refills itself one copy at a time, and only while the service
    #    has no request in flight (pool_refill="idle", the default).
    #    "none" leaves warming to prepare() alone, for callers that time
    #    a window garbling must stay out of.
    config = EngineConfig(
        fmt=FixedPointFormat(int_bits=2, frac_bits=6),
        activation="exact",
        backend="two_party",
        ot_group=MODP_2048,
        rng=random.Random(42),
    )
    service = PrivateInferenceService(model, config)
    print(f"compiled: {service.circuit_summary}")
    print(f"registered backends: {', '.join(available_backends())}")

    # 3. cold request: garbling happens on the online critical path
    sample = x[0]
    start = time.time()
    cold = service.infer(sample)
    print(f"cold inference:   label {cold.label} | "
          f"{time.time() - start:.1f}s wall | "
          f"garble {cold.times['garble']:.2f}s on the critical path | "
          f"comm {cold.comm_bytes / 1e6:.2f} MB")

    # 4. offline/online split: prepare() garbles ahead of the request
    service.prepare(2)
    warm = service.infer(sample)
    print(f"pooled inference: label {warm.label} | "
          f"garble {warm.times['garble'] * 1e3:.2f}ms online "
          f"(pre-garbled: {warm.pregarbled}) | "
          f"online wall {warm.wall_seconds:.1f}s")

    # 5. any registered backend serves the same request — here the
    #    constrained-client outsourcing flow (Sec. 3.3)
    outsourced = service.infer(sample, backend="outsourced")
    print(f"outsourced:       label {outsourced.label} "
          f"(backend {outsourced.backend})")

    # 6. check against the cleartext reference
    expected = service.cleartext_label(sample)
    assert cold.label == warm.label == outsourced.label == expected
    print(f"all labels match the cleartext reference ({expected}) -> MATCH")


if __name__ == "__main__":
    main()
