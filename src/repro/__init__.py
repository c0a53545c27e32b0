"""DeepSecure reproduction: provably-secure deep-learning inference.

Reproduces *DeepSecure: Scalable Provably-Secure Deep Learning*
(Rouhani, Riazi, Koushanfar — DAC 2018): a garbled-circuit framework for
private DL inference with GC-optimized layer circuits, sequential
netlists, data-projection and network-pruning pre-processing, and secure
outsourcing for constrained clients.

Quick tour (see ``examples/quickstart.py`` for the runnable version)::

    from repro.nn import Sequential, Dense, Tanh, Trainer
    from repro.engine import EngineConfig
    from repro.service import PrivateInferenceService

    model = Sequential([Dense(8), Tanh(), Dense(4)], input_shape=(12,))
    Trainer(model).fit(x_train, y_train)

    service = PrivateInferenceService(model, EngineConfig(
        backend="two_party",   # or outsourced / cut_and_choose / simulate
        pool_size=8,           # pre-garble 8 circuits (offline phase)
    ))
    service.prepare()                       # input-independent garbling
    result = service.infer(sample)          # online: OT + evaluate only
    results = service.infer_many(samples)   # one batched pass

Every execution flow is a named backend behind one contract::

    from repro.engine import get_backend

    backend = get_backend("outsourced")
    result = backend.run(circuit, client_bits, server_bits)

**Offline/online split** — garbling depends only on the public netlist,
never on either party's inputs (paper Sec. 3).  ``EngineConfig.pool_size``
therefore buys online latency with idle-time work: ``prepare()`` garbles
circuit copies ahead of requests, and each pooled ``infer()`` skips the
garbling phase entirely.

Subpackages:

* :mod:`repro.circuits` — Boolean netlists, GC-optimized arithmetic and
  the Table 3 activation circuits (LUT / truncated / piecewise / CORDIC);
* :mod:`repro.synthesis` — the GC cost library and optimization passes;
* :mod:`repro.gc` — half-gates garbling, OT (+extension), the two-party
  protocol, sequential garbling and XOR-share outsourcing;
* :mod:`repro.engine` — the unified execution API: backend registry,
  `EngineConfig`, pre-garbled pools;
* :mod:`repro.nn` — numpy DL substrate with circuit-exact quantization;
* :mod:`repro.data` — synthetic MNIST/ISOLET/DSA stand-ins;
* :mod:`repro.preprocess` — Algorithm 1/2 projection and pruning;
* :mod:`repro.compile` — model-to-netlist compiler and the Table 2 cost
  model;
* :mod:`repro.baselines` — CryptoNets over simulated leveled HE;
* :mod:`repro.analysis` — throughput, Fig. 5 pipeline, Fig. 6 curves;
* :mod:`repro.zoo` — the paper's four benchmarks (+ ``build_service``).
"""

from . import (
    analysis,
    baselines,
    circuits,
    compile,
    data,
    engine,
    gc,
    nn,
    preprocess,
    synthesis,
    zoo,
)
from .engine import EngineConfig
from .errors import (
    CircuitError,
    CompileError,
    EngineError,
    GarblingError,
    OTError,
    PreprocessError,
    ProtocolError,
    QuantizationError,
    ReproError,
    SynthesisError,
    TrainingError,
)
from .service import (
    InferenceRequest,
    InferenceResult,
    PrivateInferenceService,
)

__version__ = "1.1.0"

__all__ = [
    "circuits",
    "synthesis",
    "gc",
    "engine",
    "nn",
    "data",
    "preprocess",
    "compile",
    "baselines",
    "analysis",
    "zoo",
    "PrivateInferenceService",
    "InferenceRequest",
    "InferenceResult",
    "EngineConfig",
    "ReproError",
    "CircuitError",
    "SynthesisError",
    "GarblingError",
    "ProtocolError",
    "OTError",
    "QuantizationError",
    "CompileError",
    "TrainingError",
    "PreprocessError",
    "EngineError",
    "__version__",
]
