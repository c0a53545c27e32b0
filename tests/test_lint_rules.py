"""Fixture tests for the repro.lint rule engine (L001-L004).

Each rule gets at least one fixture that must fire (a deliberate
violation) and one that must stay silent (the corrected form), so the
rules themselves are pinned by tests the same way the garbling engine
is.  The suite also covers the CLI exit-code contract and — as the
tier-1 gate — that the repository's own ``src`` tree has no findings.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

from repro.lint import default_rules, run_paths, run_source
from repro.lint.__main__ import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.lint.dtype_discipline import DtypeDiscipline
from repro.lint.lock_discipline import LockDiscipline
from repro.lint.rng_discipline import RngDiscipline
from repro.lint.secret_hygiene import SecretHygiene

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def lint(source, path, rule):
    return run_source(textwrap.dedent(source), path, rules=[rule])


# -- L001: lock discipline ------------------------------------------------


class TestLockDiscipline:
    BAD = """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def put(self, item):
                with self._lock:
                    self._items.append(item)

            def drain(self):
                # mutation of guarded state outside the lock
                self._items.clear()
    """

    GOOD = """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def put(self, item):
                with self._lock:
                    self._items.append(item)

            def drain(self):
                with self._lock:
                    self._items.clear()
    """

    def test_fires_on_unlocked_mutation(self):
        findings = lint(self.BAD, "repro/engine/pool.py", LockDiscipline())
        assert findings, "unlocked mutation must be flagged"
        assert all(f.rule == "L001" for f in findings)
        assert any("drain" in f.message for f in findings)

    def test_silent_when_locked(self):
        assert lint(self.GOOD, "repro/engine/pool.py", LockDiscipline()) == []

    def test_private_methods_are_exempt(self):
        source = """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def put(self, item):
                    with self._lock:
                        self._items.append(item)

                def _drain_locked(self):
                    # private helpers run with the lock already held
                    self._items.clear()
        """
        assert lint(source, "repro/engine/pool.py", LockDiscipline()) == []

    def test_read_only_after_init_is_not_guarded(self):
        source = """
            import threading

            class Service:
                def __init__(self, kdf):
                    self._lock = threading.Lock()
                    self._kdf = kdf
                    self._stats = {}

                def bump(self):
                    with self._lock:
                        self._stats["n"] = 1

                def kdf_name(self):
                    # _kdf is never mutated after __init__: configuration
                    return self._kdf.name
        """
        assert lint(source, "repro/service.py", LockDiscipline()) == []

    def test_lockless_class_is_ignored(self):
        source = """
            class Plain:
                def __init__(self):
                    self._items = []

                def put(self, item):
                    self._items.append(item)
        """
        assert lint(source, "repro/engine/pool.py", LockDiscipline()) == []


# -- L002: rng discipline -------------------------------------------------


class TestRngDiscipline:
    def test_fires_on_module_global_random(self):
        source = """
            import random

            def pick():
                return random.randint(0, 3)
        """
        findings = lint(source, "repro/gc/garble.py", RngDiscipline())
        assert findings and all(f.rule == "L002" for f in findings)

    def test_fires_on_np_random_global(self):
        source = """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """
        findings = lint(source, "repro/circuits/netlist.py", RngDiscipline())
        assert findings and all(f.rule == "L002" for f in findings)

    def test_fires_on_importfrom(self):
        source = "from random import randint\n"
        assert lint(source, "repro/gc/ot.py", RngDiscipline())

    def test_silent_on_injected_sources(self):
        source = """
            import random
            import numpy as np

            def make(seed):
                return random.Random(seed), np.random.default_rng(seed)
        """
        assert lint(source, "repro/gc/garble.py", RngDiscipline()) == []

    def test_out_of_scope_path_is_ignored(self):
        source = "import random\nx = random.random()\n"
        rule = RngDiscipline()
        assert not rule.applies_to("repro/analysis/figure6.py")
        assert run_source(source, "repro/analysis/figure6.py", rules=[rule]) == []


# -- L003: secret hygiene -------------------------------------------------


class TestSecretHygiene:
    def test_fires_on_printed_label(self):
        source = """
            def debug(zero_label):
                print("wire", zero_label)
        """
        findings = lint(source, "repro/gc/garble.py", SecretHygiene())
        assert findings and all(f.rule == "L003" for f in findings)

    def test_fires_on_secret_in_exception_fstring(self):
        source = """
            def check(delta):
                raise ValueError(f"bad delta {delta}")
        """
        assert lint(source, "repro/gc/labels.py", SecretHygiene())

    def test_fires_on_repr_exposing_secret(self):
        source = """
            class Wire:
                def __repr__(self):
                    return f"Wire({self._labels})"
        """
        assert lint(source, "repro/gc/labels.py", SecretHygiene())

    def test_fires_on_random_random_fallback(self):
        source = """
            import random

            def garble(rng=None):
                rng = rng or random.Random()
                return rng
        """
        assert lint(source, "repro/gc/garble.py", SecretHygiene())

    def test_fires_on_random_random_param_default(self):
        source = """
            import random

            def garble(rng=random.Random(0)):
                return rng
        """
        assert lint(source, "repro/gc/garble.py", SecretHygiene())

    def test_silent_on_fixed_forms(self):
        source = """
            import secrets

            class Wire:
                def __repr__(self):
                    return f"Wire(bits={self._bits})"

            def garble(rng=None):
                rng = rng or secrets
                print("gates:", 42)
                raise ValueError("bad wire index")
        """
        assert lint(source, "repro/gc/garble.py", SecretHygiene()) == []

    def test_out_of_scope_path_is_ignored(self):
        assert not SecretHygiene().applies_to("repro/nn/model.py")


# -- L004: dtype discipline -----------------------------------------------


class TestDtypeDiscipline:
    def test_fires_on_dtypeless_alloc(self):
        source = """
            import numpy as np

            def schedule(n):
                return np.zeros(n)
        """
        findings = lint(source, "repro/gc/sha256_vec.py", DtypeDiscipline())
        assert findings and all(f.rule == "L004" for f in findings)

    def test_fires_on_dtypeless_array_in_arithmetic(self):
        source = """
            import numpy as np

            def mix(x):
                return x + np.array([0, 3, 2, 1])
        """
        assert lint(source, "repro/gc/fastgarble.py", DtypeDiscipline())

    def test_silent_with_explicit_dtype(self):
        source = """
            import numpy as np

            def schedule(n):
                a = np.zeros(n, dtype=np.uint32)
                b = np.array([0, 3, 2, 1], dtype=np.intp)
                return a[b] + np.full(n, 7, np.uint64)
        """
        assert lint(source, "repro/gc/sha256_vec.py", DtypeDiscipline()) == []

    def test_only_kernel_files_in_scope(self):
        rule = DtypeDiscipline()
        assert rule.applies_to("src/repro/gc/cipher.py")
        assert rule.applies_to("src/repro/gc/ot_extension.py")
        assert not rule.applies_to("src/repro/gc/garble.py")
        assert not rule.applies_to("src/repro/nn/layers.py")


# -- CLI exit codes -------------------------------------------------------


def _write_module(tmp_path, source):
    tree = tmp_path / "repro" / "gc"
    tree.mkdir(parents=True)
    mod = tree / "fixture.py"
    mod.write_text(textwrap.dedent(source))
    return tmp_path


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _write_module(tmp_path, "x = 1\n")
        assert main([str(root)]) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = _write_module(tmp_path, "import random\ny = random.random()\n")
        assert main([str(root)]) == EXIT_FINDINGS
        assert "L002" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        root = _write_module(tmp_path, "def broken(:\n")
        assert main([str(root)]) == EXIT_USAGE
        assert "L000" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        root = _write_module(tmp_path, "import random\ny = random.random()\n")
        assert main([str(root), "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["rule"] == "L002"


# -- the repository gate --------------------------------------------------


class TestRepositoryIsClean:
    """Tier-1: the shipped src tree has no findings at all."""

    def test_src_tree_has_no_findings(self):
        findings = run_paths([REPO_ROOT / "src"], rules=default_rules())
        assert findings == [], "\n".join(f.format() for f in findings)
