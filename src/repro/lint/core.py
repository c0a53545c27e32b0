"""Rule engine for the project-native static analyzer.

The linter exists because the test suite can only *sample* three classes
of invariants this codebase depends on — lock discipline around shared
serving state, RNG/secret hygiene inside the garbling security boundary,
and NumPy dtype discipline in the vectorized kernels.  Each rule turns
one convention into a machine-checked property over the AST.

A :class:`Rule` visits one parsed module and emits :class:`Finding`
records; :func:`run_paths` walks files and applies every rule whose
``applies_to`` matches the (posix-normalized) path.  Scoping is by path
substring (``repro/gc/`` etc.) so fixture tests can reproduce any scope
under a temporary directory.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

__all__ = ["Finding", "Rule", "default_rules", "run_source", "run_paths"]


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, pinned to ``path:line``.

    Attributes:
        path: posix-normalized file path as given to the runner.
        line: 1-based source line.
        rule: rule id (``L001`` .. ``L004``).
        severity: ``"error"`` or ``"warning"``.
        message: human-facing description of the violated invariant.
    """

    path: str
    line: int
    rule: str
    severity: str
    message: str

    def format(self) -> str:
        """``path:line: RULE [severity] message`` (clickable in editors)."""
        return f"{self.path}:{self.line}: {self.rule} [{self.severity}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form (used by ``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
        }


class Rule:
    """Base class: one enforced convention.

    Subclasses set ``rule_id``/``severity``/``description`` and implement
    :meth:`check`; :meth:`applies_to` scopes the rule to the module paths
    whose invariants it protects.
    """

    rule_id = "L000"
    severity = "error"
    description = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (posix-normalized)."""
        return True

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        """Return every violation in the parsed module."""
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            rule=self.rule_id,
            severity=self.severity,
            message=message,
        )


def default_rules() -> List[Rule]:
    """The project rule set (L001-L004), freshly instantiated."""
    from .dtype_discipline import DtypeDiscipline
    from .lock_discipline import LockDiscipline
    from .rng_discipline import RngDiscipline
    from .secret_hygiene import SecretHygiene

    return [LockDiscipline(), RngDiscipline(), SecretHygiene(), DtypeDiscipline()]


def normalize_path(path: Union[str, pathlib.PurePath]) -> str:
    """Posix form of ``path`` (rule scoping matches on ``/`` separators)."""
    return pathlib.PurePath(path).as_posix()


def run_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one source string as if it lived at ``path``.

    This is the fixture-test entry point: the path controls which rules
    apply, so a snippet "located" at ``repro/gc/x.py`` sees the gc-scoped
    rules.
    """
    norm = normalize_path(path)
    tree = ast.parse(source, filename=norm)
    findings: List[Finding] = []
    for rule in rules if rules is not None else default_rules():
        if rule.applies_to(norm):
            findings.extend(rule.check(tree, norm))
    return sorted(findings)


def iter_python_files(paths: Iterable[Union[str, pathlib.Path]]) -> Iterator[pathlib.Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen = set()
    for raw in paths:
        root = pathlib.Path(raw)
        if root.is_dir():
            candidates: Iterable[pathlib.Path] = sorted(root.rglob("*.py"))
        else:
            candidates = [root]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def run_paths(
    paths: Iterable[Union[str, pathlib.Path]],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings.

    Unparseable files surface as a single ``L000`` error finding rather
    than aborting the whole run.
    """
    active = list(rules) if rules is not None else default_rules()
    findings: List[Finding] = []
    for file in iter_python_files(paths):
        norm = normalize_path(file)
        try:
            source = file.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=norm)
        except (OSError, SyntaxError) as exc:
            findings.append(
                Finding(
                    path=norm,
                    line=getattr(exc, "lineno", None) or 1,
                    rule="L000",
                    severity="error",
                    message=f"could not parse: {exc}",
                )
            )
            continue
        for rule in active:
            if rule.applies_to(norm):
                findings.extend(rule.check(tree, norm))
    return sorted(findings)
