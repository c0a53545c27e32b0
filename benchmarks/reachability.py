"""Reachability ledger: which use of the program reaches each function of
``src/repro`` — a request, a paper exhibit, another benchmark, tier-1
alone, or nothing.

    python3 benchmarks/reachability.py [--out FILE] [--workdir DIR]

copies the tree into a scratch directory (``--workdir``, which must not
hold a copy yet; a fresh temporary one by default), runs the four modes
there under a line tracer and writes ``--out``
(``benchmarks/results/reachability.txt``):

- **served** — the five layered workloads under ``--quick`` and every
  ``repro.cli`` / ``repro.lint`` command the CI workflow runs;
- **exhibit** — the paper's tables and figures (``bench_table*``,
  ``bench_fig*``, ``bench_garbling_schemes``) and ``examples/*.py``;
- **bench** — every other ``bench_*.py``, in quick mode;
- **tested** — the tier-1 suite.

The tracer is a ``sitecustomize`` module on ``PYTHONPATH``, so every
interpreter a mode starts is traced: forked shards, the layered
benchmark's ``child.py`` processes, a ``cli worker``.  It records line
events in ``src/repro`` files only (``sys.settrace`` and
``threading.settrace``; a frame whose lines have all been seen stops
tracing) and writes one JSON file per process at ``atexit`` or in
``os._exit``.  It installs no signal handler: a process that dies of a
signal loses its record.

A function counts as reached when it is called — a ``def`` line runs
when the module is imported, so defining a function reaches only its
module.  The ledger gives each function the first mode that reaches it,
each line of a function the same, and lists the lines that served and
exhibit both miss.  A function that only tier-1 reaches, or nothing, is
either deleted or named in :data:`KEEP` with the class that keeps it.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import glob
import importlib.util
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import types
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODES = ("served", "exhibit", "bench", "tested")
#: what a copy of the tree needs to run every mode
COPIED = (
    "src", "tests", "benchmarks", "examples", ".github",
    "pyproject.toml", "setup.py", "BENCHMARK.json", "BENCH_engine.json",
)
#: the environment CI's bench job runs the benchmarks in
BENCH_ENV = {
    "REPRO_BENCH_QUICK": "1",
    "REPRO_BENCH_SPEEDUP_FLOOR": "1.2",
    "REPRO_BENCH_BATCH_EVAL_FLOOR": "1.3",
    "REPRO_BENCH_BATCH_EVAL_VS_FAST_FLOOR": "1.0",
    "REPRO_BENCH_FOLDED_FLOOR": "0.8",
}
EXHIBITS = (
    "bench_table3_components.py", "bench_table4_baseline.py",
    "bench_table5_preprocessing.py", "bench_table6_cryptonets.py",
    "bench_fig5_pipeline.py", "bench_fig6_crossover.py",
    "bench_garbling_schemes.py",
)
#: the ``repro.cli`` / ``repro.lint`` commands of the CI workflow that
#: run in one process (the two-process ones are in :func:`_served`)
CLI_COMMANDS = (
    ("repro.lint", "src"),
    ("repro.cli", "demo"),
    ("repro.cli", "infer", "--backend", "simulate"),
    ("repro.cli", "serve", "-n", "8"),
    ("repro.cli", "infer", "-b", "outsourced", "-n", "3"),
    ("repro.cli", "infer", "-b", "cut_and_choose", "-n", "2"),
    ("repro.cli", "serve", "-n", "2", "--request-timeout", "60", "--max-retries", "2",
     "--fault", "delay:alice_labels:0:5", "--fault", "corrupt:output_labels:0"),
    ("repro.cli", "serve", "-n", "2", "--pool", "0", "--request-timeout", "60",
     "--max-retries", "2", "--fault", "delay:tables:0:5", "--fault", "corrupt:ot:0"),
    ("repro.cli", "serve", "-n", "2", "--pool", "0", "--transport", "socket",
     "--max-retries", "2", "--fault", "short_read:*:0:512"),
    ("repro.cli", "serve", "-n", "2"),
    ("repro.cli", "serve", "-n", "2", "--kdf-backend", "hashlib"),
    ("repro.cli", "serve", "-n", "8", "--shards", "2"),
    ("repro.cli", "serve", "-n", "8", "--shards", "2", "--kill-shard", "0"),
)
STEP_TIMEOUT_S = 1800.0

ERROR = "error or validation path"
ORACLE = "reference oracle"
KDF_ZOO = "KDF zoo (held by the layered instrument's wraps)"
CHAOS = "chaos harness"
PAPER_ZOO = "paper zoo benchmark"
WRAP = "layered wrap target"

#: Functions only tier-1 reaches, or nothing, that stay: qualified name
#: (``module:qualname``; a trailing ``.*`` keeps the name and everything
#: under it) -> the class that keeps it.  Every dotted name in
#: ``benchmarks/layered/layers.py::WRAPS`` is kept as well (:data:`WRAP`).
KEEP: Dict[str, str] = {
    # raise, validate, report a failure, or turn a peer's recv typed
    "repro.errors:BatchInferenceError.__init__": ERROR,
    "repro.service:InferenceResult.failed": ERROR,
    "repro.service:PrivateInferenceService._record_error": ERROR,
    "repro.service:PrivateInferenceService._note_retry": ERROR,
    "repro.engine.backends:Backend.run": ERROR,  # raises NotImplementedError
    "repro.nn.layers:Layer.forward": ERROR,
    "repro.nn.layers:Layer.backward": ERROR,
    "repro.lint.core:Rule.check": ERROR,
    "repro.lint.core:Rule.finding": ERROR,
    "repro.lint.core:Finding.format": ERROR,
    "repro.lint.core:Finding.to_json": ERROR,
    "repro.lint.lock_discipline:_AccessCollector.visit_Delete": ERROR,
    "repro.gc.channel:Channel.close": ERROR,
    "repro.transport.socket_channel:SocketChannel.close": ERROR,
    "repro.cli:_serve_sharded.<locals>._on_sigterm": ERROR,
    "repro.transport.sharded:_Shard.heal": ERROR,  # restart budget spent
    "repro.cli:_cmd_serve.<locals>._on_sigterm": ERROR,
    "repro.resilience.deadline:Deadline.remaining": ERROR,
    "repro.circuits.gates:GateType.arity": ERROR,  # read by _validate_gates
    "repro.resilience.retry:fault_category": ERROR,
    "repro.resilience.retry:RetryPolicy.backoff_for": ERROR,
    # what the engine's tests hold it against
    "repro.circuits.netlist:Circuit._validate_gates": ORACLE,
    "repro.circuits.netlist:_scan_places": ORACLE,
    "repro.gc.evaluate:Evaluator.*": ORACLE,
    "repro.gc.garble:Garbler._garble_and": ORACLE,
    "repro.gc.garble:Garbler._garble_and_reduced": ORACLE,
    "repro.gc.cipher:_hash_many_fallback": ORACLE,
    "repro.gc.cipher:FixedKeyAES.encrypt_block": ORACLE,
    "repro.gc.cipher:FixedKeyAES._add_round_key": ORACLE,
    "repro.gc.cipher:FixedKeyAES._sub_shift": ORACLE,
    "repro.gc.cipher:FixedKeyAES._mix_columns": ORACLE,
    "repro.gc.cipher:FixedKeyAES.encrypt_blocks": ORACLE,
    "repro.circuits.activations.cordic:sigmoid_reference": ORACLE,
    "repro.circuits.activations.cordic:sigmoid_via_tanh_reference": ORACLE,
    "repro.circuits.activations.piecewise:PiecewiseSpec.evaluate": ORACLE,
    "repro.circuits.activations.piecewise:PiecewiseSpec.evaluate_positive": ORACLE,
    "repro.gc.cipher:VectorHashKDF.*": KDF_ZOO,
    "repro.gc.cipher:ParallelKDF.*": KDF_ZOO,
    "repro.gc.cipher:KDFCalibration.*": KDF_ZOO,
    "repro.gc.cipher:AutoHashKDF.*": KDF_ZOO,
    "repro.gc.cipher:_bench_hash_many": KDF_ZOO,
    "repro.gc.cipher:calibrate_kdf": KDF_ZOO,
    "repro.gc.cipher:kdf_calibration": KDF_ZOO,
    "repro.gc.sha256_vec.*": KDF_ZOO,
    # the CI chaos job drives it through tier-1
    "repro.resilience.faults:FaultyStream.*": CHAOS,
    "repro.resilience.faults:FaultPlan.applied": CHAOS,
    "repro.resilience.faults:FaultyChannel.close": CHAOS,
    # the four benchmarks, their data, benchmark 1's conv/pool path
    "repro.zoo.*": PAPER_ZOO,
    "repro.data.digits.*": PAPER_ZOO,
    "repro.compile.compiler:_Compiler._compile_conv.*": PAPER_ZOO,
    "repro.compile.compiler:_Compiler._compile_pool.*": PAPER_ZOO,
    "repro.compile.compiler:_Compiler._mean_window": PAPER_ZOO,
    "repro.circuits.logic:adder_tree": PAPER_ZOO,  # _mean_window's sum
    "repro.nn.initializers:he_uniform": PAPER_ZOO,
    "repro.nn.layers:Conv2D.*": PAPER_ZOO,
    "repro.nn.layers:_Pool2D.*": PAPER_ZOO,
    "repro.nn.layers:MaxPool2D.*": PAPER_ZOO,
    "repro.nn.layers:MeanPool2D.*": PAPER_ZOO,
    "repro.nn.layers:Flatten.*": PAPER_ZOO,
    "repro.nn.layers:ReLU.*": PAPER_ZOO,
    "repro.nn.layers:Sigmoid.*": PAPER_ZOO,
    "repro.nn.quantize:QuantizedConv2D.*": PAPER_ZOO,
    "repro.nn.quantize:QuantizedModel._pool": PAPER_ZOO,
}


def wrap_targets() -> Set[str]:
    """Every dotted ``repro.`` name in the layered benchmark's WRAPS."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "layered"))
    try:
        import layers
    finally:
        sys.path.pop(0)
    names: Set[str] = set()

    def walk(value: object) -> None:
        if isinstance(value, str):
            if value.startswith("repro."):
                names.add(value)
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(key)
                walk(item)
        elif isinstance(value, (list, tuple, set)):
            for item in value:
                walk(item)
        elif hasattr(value, "__dict__"):
            walk(vars(value))

    walk(layers.WRAPS)
    return names


# ---------------------------------------------------------------- tracer

SITECUSTOMIZE = '''\
"""Line tracer of benchmarks/reachability.py (generated)."""
import atexit
import json
import os
import sys
import threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_todo = {{}}


def _tracer(frame, event, arg):
    code = frame.f_code
    todo = _todo.get(code)
    if todo is None:
        if not code.co_filename.startswith(_PREFIX):
            return None
        todo = _todo[code] = {{
            line for _, _, line in code.co_lines() if line is not None
        }} - {{code.co_firstlineno}}
    if not todo:
        return None

    def local(frame, event, arg):
        if event == "line":
            todo.discard(frame.f_lineno)
            if not todo:
                return None
        return local

    return local


def _flush():
    record = {{}}
    for code, todo in list(_todo.items()):
        lines = {{line for _, _, line in code.co_lines() if line is not None}}
        entry = record.setdefault(code.co_filename, [[], []])
        if code.co_flags & 0x2:  # a call, not a module or class body
            entry[0].append(code.co_firstlineno)
        entry[1].extend(sorted(lines - todo - {{code.co_firstlineno}}))
    path = os.path.join(_OUT, "%d-%s.json" % (os.getpid(), os.urandom(4).hex()))
    with open(path, "w") as handle:
        json.dump(record, handle)


_real_exit = os._exit


def _exit(status):
    try:
        _flush()
    finally:
        _real_exit(status)


os._exit = _exit
atexit.register(_flush)
threading.settrace(_tracer)
sys.settrace(_tracer)
'''


def write_sitecustomize(directory: pathlib.Path, prefix: str, out: pathlib.Path) -> None:
    """The tracer module for one mode: it traces files under ``prefix``
    and writes its records into ``out``."""
    directory.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    (directory / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(prefix=prefix, out=str(out))
    )


@dataclasses.dataclass
class Reached:
    """What one mode reached: called code objects and executed lines,
    per path relative to the source root."""

    calls: Dict[str, Set[int]] = dataclasses.field(
        default_factory=lambda: collections.defaultdict(set)
    )
    lines: Dict[str, Set[int]] = dataclasses.field(
        default_factory=lambda: collections.defaultdict(set)
    )


def load_records(out: pathlib.Path, prefix: str) -> Reached:
    """Union of every process record a mode wrote."""
    reached = Reached()
    for path in sorted(out.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except ValueError:  # a process cut mid-write
            continue
        for filename, (firsts, lines) in record.items():
            rel = filename[len(prefix):]
            reached.calls[rel].update(firsts)
            reached.lines[rel].update(lines)
    return reached


# ---------------------------------------------------------- source model

@dataclasses.dataclass
class Function:
    """One ``def`` of the source tree and its executable lines (those of
    its comprehensions and lambdas included, nested ``def``s not)."""

    path: str
    qualname: str
    first: int
    lines: Set[int]

    @property
    def name(self) -> str:
        module = self.path[:-3].replace("/", ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        return f"repro.{module}:{self.qualname}"


def _code_lines(code: types.CodeType) -> Set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _is_function(code: types.CodeType) -> bool:
    # class bodies and modules run without fresh locals; comprehensions
    # and lambdas have ``<...>`` names
    return bool(code.co_flags & 0x2) and not code.co_name.startswith("<")


def functions(src: pathlib.Path) -> List[Function]:
    """Every function of the package under ``src`` (its ``repro`` dir)."""
    found: List[Function] = []
    for file in sorted(src.rglob("*.py")):
        rel = file.relative_to(src).as_posix()
        module = compile(file.read_text(), str(file), "exec")

        def walk(code: types.CodeType, owner: Optional[Function]) -> None:
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                if _is_function(const):
                    fn = Function(
                        rel, const.co_qualname, const.co_firstlineno,
                        _code_lines(const) - {const.co_firstlineno},
                    )
                    found.append(fn)
                    walk(const, fn)
                else:
                    if owner is not None:  # a comprehension or lambda
                        owner.lines |= _code_lines(const) - {const.co_firstlineno}
                    walk(const, owner)

        walk(module, None)
    return found


def keep_class(fn: Function, wraps: Set[str]) -> Optional[str]:
    """The class that keeps ``fn`` (:data:`KEEP`, or a ``wraps`` name)."""
    name = fn.name
    if name.replace(":", ".") in wraps:
        return WRAP
    for pattern, why in KEEP.items():
        base = pattern[:-2] if pattern.endswith(".*") else None
        if pattern == name or base is not None and (
            name == base or name.startswith(base + ".") or name.startswith(base + ":")
        ):
            return why
    return None


# ------------------------------------------------------------------ modes

def _python(*args: str) -> List[str]:
    return [sys.executable, *args]


def _served(work: pathlib.Path, env: Dict[str, str]) -> Iterator[Tuple[str, int]]:
    """The layered workloads, then CI's CLI and lint commands."""
    yield _run(_python("benchmarks/layered/run.py", "--seed", "0", "--quick"), work, env)
    for module, *args in CLI_COMMANDS:
        yield _run(_python("-m", module, *args), work, env)
    # a worker and its caller in two interpreters, as CI's smoke runs them
    port_file = work / "worker.port"
    worker = subprocess.Popen(
        _python("-m", "repro.cli", "worker", "--port", "0", "--port-file",
                str(port_file), "--once"),
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    host, port = _await_port(port_file)
    _, status = _run(_python("-m", "repro.cli", "infer", "-b", "two_party", "--transport",
                             "socket", "--connect", f"{host}:{port}", "-n", "2"), work, env)
    yield "cli infer -b two_party --transport socket --connect (the worker) -n 2", status
    yield "cli worker --once", worker.wait(timeout=STEP_TIMEOUT_S)
    # and a worker drained by SIGTERM
    port_file.unlink(missing_ok=True)
    worker = subprocess.Popen(
        _python("-m", "repro.cli", "worker", "--port", "0", "--port-file", str(port_file)),
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _await_port(port_file)
    worker.send_signal(signal.SIGTERM)
    yield "cli worker (SIGTERM drain)", worker.wait(timeout=STEP_TIMEOUT_S)


def _exhibit(work: pathlib.Path, env: Dict[str, str]) -> Iterator[Tuple[str, int]]:
    yield _run(_pytest(*(f"benchmarks/{name}" for name in EXHIBITS)), work, env)
    for example in sorted((work / "examples").glob("*.py")):
        yield _run(_python(f"examples/{example.name}"), work, env)


def _bench(work: pathlib.Path, env: Dict[str, str]) -> Iterator[Tuple[str, int]]:
    others = sorted(
        name for name in map(os.path.basename, glob.glob(str(work / "benchmarks/bench_*.py")))
        if name not in EXHIBITS
    )
    for name in others:
        yield _run(_pytest(f"benchmarks/{name}"), work, {**env, **BENCH_ENV})


def _tested(work: pathlib.Path, env: Dict[str, str]) -> Iterator[Tuple[str, int]]:
    yield _run(_pytest(), work, env)


def _pytest(*args: str) -> List[str]:
    # a timed pytest-benchmark round pauses sys.settrace; disabled, the
    # fixture calls the function once, traced
    disable = ["--benchmark-disable"] if importlib.util.find_spec("pytest_benchmark") else []
    return _python("-m", "pytest", "-q", "-p", "no:cacheprovider", *disable, *args)


def _run(command: Sequence[str], work: pathlib.Path, env: Dict[str, str]) -> Tuple[str, int]:
    shown = " ".join(command[1:])
    try:
        completed = subprocess.run(
            command, cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=STEP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return shown, -1
    return shown, completed.returncode


def _await_port(port_file: pathlib.Path) -> Tuple[str, str]:
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            host, port = port_file.read_text().split()
            return host, port
        time.sleep(0.2)
    raise RuntimeError(f"no worker wrote {port_file}")


RUNNERS = {"served": _served, "exhibit": _exhibit, "bench": _bench, "tested": _tested}


def run_mode(mode: str, work: pathlib.Path) -> Tuple[Reached, List[str]]:
    """Run one mode in the copy at ``work``; what it reached and a log
    line per step (exit status and seconds)."""
    prefix = str(work / "src" / "repro") + os.sep
    site, out = work / ".reach" / mode / "site", work / ".reach" / mode / "out"
    write_sitecustomize(site, prefix, out)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(work / "src")])
    log = []
    start = time.perf_counter()
    for step, status in RUNNERS[mode](work, env):
        log.append(f"{mode}: exit {status:>3} {time.perf_counter() - start:7.1f} s  {step}")
        print(log[-1], flush=True)
        start = time.perf_counter()
    return load_records(out, prefix), log


def copy_tree(work: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, work / name, ignore=ignore)
        elif source.exists():
            shutil.copy2(source, work / name)


# ----------------------------------------------------------------- ledger

def first_mode(reached: Dict[str, Reached], hit) -> str:
    for mode in MODES:
        if hit(reached[mode]):
            return mode
    return "none"


def _ranges(lines: Iterable[int]) -> str:
    spans: List[List[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def ledger(fns: Sequence[Function], reached: Dict[str, Reached], log: Sequence[str]) -> str:
    """The ledger's text."""
    by_mode: Dict[str, int] = collections.Counter()
    rows, kept, stray, missed = [], [], [], []
    wraps = wrap_targets()
    for fn in fns:
        mode = first_mode(reached, lambda r, fn=fn: fn.first in r.calls.get(fn.path, ()))
        for line in fn.lines:
            by_mode[first_mode(
                reached, lambda r, fn=fn, line=line: line in r.lines.get(fn.path, ())
            )] += 1
        row = f"{mode:<8} {fn.path}:{fn.first} {fn.qualname}"
        why = keep_class(fn, wraps)
        if mode in ("served", "exhibit", "bench"):
            rows.append(row)
        elif why is not None:
            kept.append(f"{row}  [{why}]")
        else:
            stray.append(row)
        if mode in ("served", "exhibit"):
            lines = {
                line for line in fn.lines
                if not any(line in reached[m].lines.get(fn.path, ())
                           for m in ("served", "exhibit"))
            }
            if lines:
                missed.append(f"{fn.path}:{fn.first} {fn.qualname}: {_ranges(lines)}")
    total = sum(by_mode.values())
    out = [
        "# Reachability ledger of src/repro: python3 benchmarks/reachability.py",
        f"# modes in order: {', '.join(MODES)}; "
        "a function or line is charged to the first mode that reaches it.",
        f"# {len(fns)} functions, {total} executable lines inside them:",
    ]
    out += [f"#   {mode:<8} {by_mode[mode]:>6} lines" for mode in (*MODES, "none")]
    out += ["#", "# steps (exit status, seconds):"] + [f"#   {line}" for line in log]
    out += ["", f"## reached by a request, an exhibit or a benchmark ({len(rows)})"] + rows
    out += ["", f"## keep: reached by tier-1 alone or by nothing, kept for a named "
            f"class ({len(kept)})"] + kept
    out += ["", f"## delete: reached by tier-1 alone or by nothing, in no keep class "
            f"({len(stray)})"] + stray
    out += ["", f"## lines of reached functions that served and exhibit both miss ({len(missed)})"]
    out += missed
    return "\n".join(out) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / "benchmarks" / "results" / "reachability.txt")
    parser.add_argument("--workdir", type=pathlib.Path, default=None,
                        help="where the tree is copied, absent or empty "
                        "(default: a fresh temp dir)")
    args = parser.parse_args(argv)
    work = args.workdir or pathlib.Path(tempfile.mkdtemp(prefix="reach-"))
    copy_tree(work)
    reached, log = {}, []
    for mode in MODES:
        reached[mode], mode_log = run_mode(mode, work)
        log += mode_log
    text = ledger(functions(work / "src" / "repro"), reached, log)
    if args.workdir is None:
        shutil.rmtree(work)
    args.out.write_text(text)
    print("\n".join(text.splitlines()[:8]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
