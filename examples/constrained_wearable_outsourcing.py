"""Scenario: a constrained client outsources garbling (paper Sec. 3.3).

A medical implant cannot garble millions of gates.  DeepSecure's answer:
the client XOR-shares its input between two non-colluding servers — a
proxy (who garbles) and the model owner (who evaluates).  The client's
total work is generating a random pad and XORing its input once; the
garbled circuit grows by exactly one layer of *free* XOR gates.

This example runs both the direct and the outsourced protocol on the
same model and sample, verifies they agree, shows the share distribution
is uniform (Prop. 3.2), and measures the overhead.

Run:  python examples/constrained_wearable_outsourcing.py
"""

import random

import numpy as np

from repro.circuits import FixedPointFormat
from repro.compile import CompileOptions, compile_model
from repro.gc import OutsourcedSession, execute, outsource_circuit, split_input
from repro.gc.ot import TEST_GROUP_512
from repro.nn import Dense, QuantizedModel, Sequential, Tanh, TrainConfig, Trainer


def main() -> None:
    # --- the model owner's classifier (e.g. arrhythmia detection)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(500, 10))
    w = rng.normal(size=(10, 3))
    y = (x @ w).argmax(axis=1)
    model = Sequential([Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=1)
    Trainer(model, TrainConfig(epochs=20, learning_rate=0.2)).fit(x, y)

    fmt = FixedPointFormat(2, 6)
    quantized = QuantizedModel(model, fmt, activation_variant="exact")
    compiled = compile_model(
        quantized, CompileOptions(activation="exact", output="argmax")
    )
    sample = x[0]
    client_bits = compiled.client_bits(sample)
    server_bits = compiled.server_bits()

    # --- the client's entire online workload: one pad, one XOR
    pad, masked = split_input(client_bits, rng=random.Random(5))
    ones = sum(pad) / len(pad)
    print(f"client work: {len(client_bits)} random bits + "
          f"{len(client_bits)} XORs (pad density {ones:.2f} — uniform, "
          "Prop. 3.2)")

    # --- circuit overhead: one free XOR layer
    transformed = outsource_circuit(compiled.circuit)
    base, out = compiled.circuit.counts(), transformed.counts()
    print(f"circuit: {base.non_xor} garbled tables direct, "
          f"{out.non_xor} outsourced (+{out.xor - base.xor} free XOR gates)")
    assert out.non_xor == base.non_xor

    # --- run both protocols and compare
    direct = execute(
        compiled.circuit, client_bits, server_bits,
        ot_group=TEST_GROUP_512, rng=random.Random(6),
    )
    session = OutsourcedSession(
        compiled.circuit, ot_group=TEST_GROUP_512, rng=random.Random(7)
    )
    outsourced = session.run(client_bits, server_bits)
    direct_label = compiled.decode_output(direct.outputs)
    outsourced_label = compiled.decode_output(outsourced.outputs)
    print(f"direct label: {direct_label}  |  outsourced label: "
          f"{outsourced_label}  |  cleartext: "
          f"{int(quantized.predict(sample[None])[0])}")
    assert direct_label == outsourced_label
    print(f"outsourced comm: "
          f"{outsourced.total_comm_bytes / 1e6:.2f} MB "
          f"(direct: {direct.total_comm_bytes / 1e6:.2f} MB) — "
          "the table transfer moved between the two servers; the client "
          "sends only its two shares.")

    # --- the same flow as a named engine backend: a deployment selects
    #     the outsourcing protocol by configuration, not by rewiring
    from repro.engine import EngineConfig
    from repro.service import PrivateInferenceService

    service = PrivateInferenceService(model, EngineConfig(
        fmt=fmt, activation="exact", backend="outsourced",
        ot_group=TEST_GROUP_512, rng=random.Random(8),
    ))
    record = service.infer(sample)
    print(f"engine backend 'outsourced': label {record.label} | "
          f"same flow, one-line config")
    assert record.label == direct_label


if __name__ == "__main__":
    main()
