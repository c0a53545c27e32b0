"""Outside-in span tracer for the layered benchmark.

The program under test carries no tracing of its own, so the benchmark
records spans around the calls *into* each layer: a target is named by
its dotted path (``repro.gc.protocol.extension_ot``), resolved when the
tracer is installed, and replaced at that binding by a wrapper that
opens a span, calls the original and closes the span.  A module-level
function imported into three modules is three bindings and needs three
targets; a method is one binding on its class.  A target that no longer
resolves is reported as missing instead of failing, because later
changes delete some of these callables and may not edit this directory.

Spans stay in memory (:attr:`Tracer.spans`) and are written out once,
by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import math
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Span",
    "Tracer",
    "covered",
    "percentile",
    "self_times",
    "tail_percentile",
]

#: ``attrs(args, kwargs, result)`` — counts read at a span's boundary.
AttrsFn = Callable[[tuple, dict, Any], Optional[Dict[str, Any]]]

#: One wrap target: dotted callable, span name, optional attribute reader.
Target = Tuple[str, str, Optional[AttrsFn]]


@dataclasses.dataclass
class Span:
    """One timed call into a layer.

    ``parent`` is the id of the span that was open when this one began
    (None at the top), ``request`` the id every span of one benchmark
    operation shares, ``start``/``end`` readings of the tracer's clock.
    """

    id: int
    parent: Optional[int]
    request: Optional[str]
    name: str
    start: float
    end: float
    thread: str
    attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread and patches wrap targets in and out.

    Each thread keeps its own stack of open spans.  A span that begins on
    a thread with an empty stack adopts the innermost span open on the
    thread that created the tracer: the benchmark drives one closed-loop
    client from that thread, so a helper thread started inside an
    operation (the sharded front-end's per-shard RPC threads) belongs to
    whatever that operation has open.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: id shared by the spans of the operation now running
        self.request: Optional[str] = None
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, stack: List[Span]) -> Span:
        if stack:
            parent: Optional[int] = stack[-1].id
        elif self._owner_stack:
            parent = self._owner_stack[-1].id
        else:
            parent = None
        span = Span(
            id=next(self._ids),
            parent=parent,
            request=self.request,
            name=name,
            start=0.0,
            end=0.0,
            thread=threading.current_thread().name,
        )
        self.spans.append(span)
        stack.append(span)
        span.start = self.clock()
        return span

    def wrap(
        self, fn: Callable[..., Any], name: str, attrs: Optional[AttrsFn] = None
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call.

        A call made while a span of the same name is already innermost
        passes straight through: ``AutoHashKDF.hash_many`` reaching
        ``HashKDF.hash_many`` through ``super()`` is one call into the
        layer, not two.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = self._open(name, stack)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span the benchmark opens around its own call into the program."""
        stack = self._stack()
        span = self._open(name, stack)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()

    # -- patching ----------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> List[str]:
        """Patch every resolvable target; return the dotted names that are gone."""
        missing: List[str] = []
        for dotted, name, attrs in targets:
            try:
                owner, attr = resolve(dotted)
            except LookupError:
                missing.append(dotted)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: Any = type(raw)(self.wrap(raw.__func__, name, attrs))
            else:
                wrapped = self.wrap(raw, name, attrs)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))
        return missing

    def uninstall(self) -> None:
        """Put every patched binding back."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def dump(self, path: Any) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(vars(span), separators=(",", ":")) + "\n")


def resolve(dotted: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` of the binding a dotted name refers to.

    The owner is the module or class whose own namespace holds the
    attribute, so patching it changes exactly that binding.

    Raises:
        LookupError: no module prefix imports, an attribute on the way is
            missing, the attribute is inherited rather than defined on
            the owner, or it is not callable.
    """
    parts = dotted.split(".")
    owner: Any = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        rest = parts[cut:]
        break
    else:
        raise LookupError(f"no importable module in {dotted!r}")
    for attr in rest[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            raise LookupError(f"{dotted!r}: no attribute {attr!r}")
    attr = rest[-1]
    raw = vars(owner).get(attr)
    target = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    if not callable(target):
        raise LookupError(f"{dotted!r} is not a callable defined on its owner")
    return owner, attr


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the part its children cover.

    Children may overlap each other (threads) or, on another thread,
    outlast their parent; only the part of the parent's interval that at
    least one child covers is subtracted, once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` % at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def tail_percentile(
    values: Sequence[float], q: float, beyond: int = 10
) -> float:
    """:func:`percentile`, refused unless ``beyond`` samples lie past it.

    A tail read from fewer samples than that is mostly the slowest
    sample: p90 needs 100 values, p99 needs 1000.
    """
    rank = max(math.ceil(q / 100 * len(values)), 1)
    if len(values) - rank < beyond:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {len(values) - rank} "
            f"beyond it; {beyond} are needed"
        )
    return percentile(values, q)
