"""Scenario: netlist interchange with other MPC / EDA tooling.

DeepSecure's flow is netlist-centric: functions are synthesized to gate
lists and garbled.  This example shows the interop surface around that:

1. export a compiled inference circuit to **Bristol Fashion** (the
   format emp-toolkit / SCALE-MAMBA / MOTION consume) and re-import it;
2. load an externally-authored Bristol circuit and run it under this
   engine's garbled protocol;
3. emit **structural Verilog** so standard EDA tools can re-synthesize
   or lint the netlist (the paper's Design Compiler angle, reversed);
4. print the per-layer gate breakdown the compiler records.

Run:  python examples/netlist_interop.py
"""

import pathlib
import random
import tempfile

import numpy as np

from repro.circuits import (
    FixedPointFormat,
    dumps_bristol,
    dumps_verilog,
    loads_bristol,
    simulate,
)
from repro.compile import CompileOptions, compile_model
from repro.gc import execute
from repro.gc.ot import TEST_GROUP_512
from repro.nn import Dense, QuantizedModel, Sequential, Tanh, TrainConfig, Trainer


def main() -> None:
    # --- compile a small private-inference circuit
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(300, 6))
    w = rng.normal(size=(6, 3))
    y = (x @ w).argmax(axis=1)
    model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(6,), seed=1)
    Trainer(model, TrainConfig(epochs=20, learning_rate=0.2)).fit(x, y)
    fmt = FixedPointFormat(2, 6)
    quantized = QuantizedModel(model, fmt, activation_variant="exact")
    compiled = compile_model(
        quantized, CompileOptions(activation="exact", output="argmax")
    )
    print("per-layer breakdown of the compiled netlist:")
    print(compiled.render_layer_report())

    # --- Bristol round trip
    text = dumps_bristol(compiled.circuit)
    recovered = loads_bristol(text)
    sample_bits = compiled.client_bits(x[0])
    server_bits = compiled.server_bits()
    original_out = simulate(compiled.circuit, sample_bits, server_bits)
    recovered_out = simulate(recovered, sample_bits, server_bits)
    assert original_out == recovered_out
    print(f"\nBristol export: {len(text.splitlines())} lines, "
          f"round-trip simulation identical ({original_out})")

    # --- run an external Bristol circuit under our garbled protocol
    external = (
        "4 7\n"
        "2 2 1\n"
        "1 2\n"
        "\n"
        "2 1 0 1 3 XOR\n"
        "2 1 3 2 5 XOR\n"
        "2 1 0 1 4 AND\n"
        "2 1 4 4 6 EQW\n"
    )
    full_adder = loads_bristol(external, name="external_full_adder")
    result = execute(full_adder, [1, 1], [1], ot_group=TEST_GROUP_512,
                     rng=random.Random(2))
    print(f"external full-adder garbled: 1+1+1 -> sum={result.outputs[0]}, "
          f"carry={result.outputs[1]}")

    # --- Verilog emission
    verilog = dumps_verilog(compiled.circuit, module_name="private_inference")
    out_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro_netlists_"))
    (out_dir / "private_inference.v").write_text(verilog)
    (out_dir / "private_inference.bristol").write_text(text)
    print(f"\nwrote {out_dir}/private_inference.v "
          f"({len(verilog.splitlines())} lines) and .bristol")
    print("first lines of the Verilog module:")
    for line in verilog.splitlines()[:6]:
        print("   ", line)


if __name__ == "__main__":
    main()
