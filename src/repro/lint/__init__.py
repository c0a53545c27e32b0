"""Project-native static analysis (``python -m repro.lint``).

Four rule families turn this repo's concurrency, security and kernel
conventions into machine-checked properties:

========  =============================================================
rule      invariant
========  =============================================================
L001      lock-owning classes touch shared ``self._*`` state only under
          ``with self._lock:`` in public methods
L002      no module-global ``random.*`` / ``np.random.*`` state inside
          ``repro/gc/`` and ``repro/circuits/`` — randomness is injected
L003      labels/keys/Δ never reach print, logging, f-string exception
          messages or ``__repr__``; key-material rng defaults to
          ``secrets``
L004      gc kernel allocations pin their NumPy dtype (wraparound lanes)
========  =============================================================

See :mod:`repro.lint.core` for the engine and the sibling modules for
each rule's full rationale.
"""

from .core import Finding, Rule, default_rules, run_paths
from .dtype_discipline import DtypeDiscipline
from .lock_discipline import LockDiscipline
from .rng_discipline import RngDiscipline
from .secret_hygiene import SecretHygiene

__all__ = [
    "Finding",
    "Rule",
    "default_rules",
    "run_paths",
    "LockDiscipline",
    "RngDiscipline",
    "SecretHygiene",
    "DtypeDiscipline",
]
