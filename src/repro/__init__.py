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

* :mod:`repro.circuits` — Boolean netlists, GC-optimized arithmetic, the
  Table 3 activation circuits (LUT / truncated / piecewise / CORDIC) and
  Bristol / Verilog export; its builder is the synthesis step (constant
  folding, structural hashing);
* :mod:`repro.gc` — half-gates garbling, OT (+extension), the two-party
  protocol, sequential garbling and XOR-share outsourcing;
* :mod:`repro.engine` — the unified execution API: backend registry,
  `EngineConfig`, pre-garbled pools;
* :mod:`repro.nn` — numpy DL substrate with circuit-exact quantization;
* :mod:`repro.data` — synthetic MNIST/ISOLET/DSA stand-ins;
* :mod:`repro.preprocess` — Algorithm 1/2 projection and pruning;
* :mod:`repro.compile` — model-to-netlist compiler, the Table 2 cost
  model and the Table 3 component inventory;
* :mod:`repro.baselines` — CryptoNets over simulated leveled HE;
* :mod:`repro.analysis` — throughput, Fig. 5 pipeline, Fig. 6 curves;
* :mod:`repro.zoo` — the paper's four benchmarks (+ ``build_service``).

``import repro`` loads what serving runs; the exhibits' subpackages
(``data``, ``preprocess``, ``baselines``, ``analysis``,
``zoo``) load when imported.
"""

from . import circuits, compile, engine, gc, nn
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
    "gc",
    "engine",
    "nn",
    "compile",
    "PrivateInferenceService",
    "InferenceRequest",
    "InferenceResult",
    "EngineConfig",
    "ReproError",
    "CircuitError",
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
