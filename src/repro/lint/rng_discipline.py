"""L002 — RNG discipline inside the garbling security boundary.

Labels and Δ must come from an *injected* rng (``secrets`` in
production, a seeded ``random.Random`` in tests) so that draw order is
explicit — each party of a split session draws its secrets from its
*own* source and nothing else, and seed-deterministic cut-and-choose
re-garbling is only correct because every draw flows through the
object handed in via ``repro/gc/rng.py`` adapters.  Module-global RNG
state (``random.randint``, ``np.random.seed``, legacy ``np.random.*``
draws) breaks both properties silently, so inside
``repro/gc/`` and ``repro/circuits/`` it is banned outright.

Allowed: constructing *instances* (``random.Random(seed)``,
``random.SystemRandom()``, ``np.random.default_rng(seed)``,
``np.random.Generator``) and everything on the injected objects.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .core import Finding, Rule

__all__ = ["RngDiscipline"]

#: ``random.<name>`` attributes that do not touch module-global state.
ALLOWED_RANDOM = {"Random", "SystemRandom"}

#: ``np.random.<name>`` attributes that are instance constructors.
ALLOWED_NP_RANDOM = {"default_rng", "Generator", "BitGenerator", "SeedSequence"}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class RngDiscipline(Rule):
    """L002: no module-global RNG state in gc/ and circuits/."""

    rule_id = "L002"
    severity = "error"
    description = (
        "module-global random.* / np.random.* state is banned in "
        "repro/gc/ and repro/circuits/; inject an rng object and draw "
        "through the repro.gc.rng adapters"
    )

    def applies_to(self, path: str) -> bool:
        return "repro/gc/" in path or "repro/circuits/" in path

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        random_aliases: Set[str] = set()
        numpy_aliases: Set[str] = set()
        np_random_aliases: Set[str] = set()
        findings: List[Finding] = []

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        random_aliases.add(bound)
                    elif alias.name == "numpy.random" and alias.asname:
                        np_random_aliases.add(alias.asname)
                    elif alias.name in ("numpy", "numpy.random"):
                        numpy_aliases.add(bound)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in ALLOWED_RANDOM:
                            findings.append(
                                self.finding(
                                    path,
                                    node,
                                    f"`from random import {alias.name}` pulls "
                                    "module-global RNG state into the garbling "
                                    "boundary; inject an rng object instead",
                                )
                            )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in ALLOWED_NP_RANDOM:
                            findings.append(
                                self.finding(
                                    path,
                                    node,
                                    f"`from numpy.random import {alias.name}` "
                                    "uses legacy global-state RNG; use "
                                    "np.random.default_rng(seed) via injection",
                                )
                            )
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            np_random_aliases.add(alias.asname or alias.name)

        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            chain = _dotted(node)
            if chain is None:
                continue
            parts = chain.split(".")
            if (
                len(parts) == 2
                and parts[0] in random_aliases
                and parts[1] not in ALLOWED_RANDOM
            ):
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"`{chain}` draws from module-global RNG state; "
                        "inject an rng and use repro.gc.rng adapters "
                        "(rand_bits / rand_below)",
                    )
                )
            elif (
                len(parts) == 3
                and parts[0] in numpy_aliases
                and parts[1] == "random"
                and parts[2] not in ALLOWED_NP_RANDOM
            ):
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"`{chain}` uses numpy's legacy global RNG; "
                        "construct np.random.default_rng(seed) and inject it",
                    )
                )
            elif (
                len(parts) == 2
                and parts[0] in np_random_aliases
                and parts[1] not in ALLOWED_NP_RANDOM
            ):
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"`{chain}` uses numpy's legacy global RNG; "
                        "construct np.random.default_rng(seed) and inject it",
                    )
                )
        return findings
