"""Hierarchical span tracing for the reproduction pipeline.

The paper's evaluation is an attribution exercise: Tables I-II price a
scalar multiplication as a weighted sum of field operations, and Fig. 1
breaks one ISS kernel down by instruction group.  The tracer produces the
same artifacts live: every scalar multiplication opens a span, every point
operation a child span, every field operation (optionally) a grandchild,
and kernel executions on the simulator attach their measured ISS cycles.
Each span records wall time plus the :class:`~repro.field.counters
.FieldOpCounter` / :class:`~repro.mpa.counters.WordOpCounter` deltas that
accumulated inside it, so one traced run yields the whole cost hierarchy
(the "Hierarchical spans" piece of DESIGN.md §4 "Observability").

Instrumentation contract (kept deliberately cheap):

* ``CURRENT`` is the installed tracer or ``None``.  Hot paths guard with a
  single global load — ``if _trace.CURRENT is not None`` — so an untraced
  run pays one pointer test per instrumented call.
* Field-operation spans are additionally gated on ``Tracer.field_ops``
  because a 160-bit ladder performs thousands of them.
* Spans nest purely by call order (the tracer keeps one stack); the code
  under a span needs no knowledge of the tracer at all.

Use :func:`install` / :func:`uninstall` (or the :class:`Tracer` as a
context manager) around the region of interest, then export through
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import functools
import operator
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..field.counters import FIELD_OPS, FieldOpCounter, op_counts
from .metrics import METRICS

__all__ = [
    "CURRENT",
    "Span",
    "Tracer",
    "install",
    "uninstall",
    "traced",
    "new_trace_id",
]

#: The installed tracer, or ``None`` when tracing is off (the common case).
CURRENT: Optional["Tracer"] = None

_SPANS_STARTED = METRICS.counter(
    "obs_spans_started", "spans opened by the installed tracer")

#: ``(field_ops, word_ops)`` attrs by (op-count delta, word costs) — the
#: spans of one point operation close on the same few deltas over and
#: over; starts over when full.
_DELTA_ATTRS: Dict[Tuple[Any, ...], Tuple[Dict[str, int],
                                          Dict[str, int]]] = {}
_DELTA_ATTRS_SIZE = 256


class Span:
    """One timed region with attributes, counter deltas and children.

    A span is its own context manager: ``with tracer.span(...) as s``
    opens it on the tracer and closes it on exit.
    """

    __slots__ = ("name", "kind", "t0_ns", "t1_ns", "attrs", "children",
                 "_counter", "_before", "_tracer")

    def __init__(self, name: str, kind: str = "span",
                 counter: Optional[FieldOpCounter] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.kind = kind
        self.t0_ns = 0
        self.t1_ns = 0
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self._counter = counter
        self._before = op_counts(counter) if counter is not None else None
        self._tracer: Optional["Tracer"] = None

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer.end(self)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (e.g. measured ISS cycles) to the span."""
        self.attrs.update(attrs)
        return self

    @property
    def dur_ns(self) -> int:
        return max(0, self.t1_ns - self.t0_ns)

    def _close_counter(self, cost_fn: Optional[Callable]) -> None:
        """Attach the :class:`~repro.field.counters.FieldOpCounter` delta
        accumulated since the span opened (only its non-zero tallies)."""
        if self._counter is None:
            return
        counter, before = self._counter, self._before
        self._counter = self._before = None
        delta = tuple(map(operator.sub, op_counts(counter), before))
        if not any(delta):
            return
        costs = counter.costs
        key = (delta, costs)
        split = _DELTA_ATTRS.get(key)
        if split is None:
            words = FieldOpCounter(*delta, costs=costs).words.snapshot()
            split = ({k: d for k, d in zip(FIELD_OPS, delta) if d},
                     {k: d for k, d in words.items() if d})
            if len(_DELTA_ATTRS) >= _DELTA_ATTRS_SIZE:
                _DELTA_ATTRS.clear()
            _DELTA_ATTRS[key] = split
        ops, words = split
        if ops:
            self.attrs["field_ops"] = dict(ops)
        if words:
            self.attrs["word_ops"] = dict(words)
        if cost_fn is not None:
            try:
                self.attrs["cycles_est"] = round(float(cost_fn(
                    FieldOpCounter(*delta, costs=costs))), 1)
            except Exception:
                pass  # pricing is best-effort decoration, never fatal

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, "
                f"dur_us={self.dur_ns / 1000:.1f}, "
                f"children={len(self.children)})")


class Tracer:
    """Collects a forest of :class:`Span` trees from one traced region.

    Args:
        field_ops: record a span per *field* operation (add/mul/...).  Off
            by default; a full ladder opens thousands of them.
        cost_fn: optional ``FieldOpCounter -> cycles`` estimator (see
            :func:`repro.model.opcost.price`) applied to every counter
            delta, attaching a ``cycles_est`` attribute.
        clock: nanosecond clock, overridable for deterministic tests.
    """

    def __init__(self, field_ops: bool = False,
                 cost_fn: Optional[Callable] = None,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.field_ops = field_ops
        self.cost_fn = cost_fn
        self._clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- span lifecycle ------------------------------------------------------

    def start(self, name: str, kind: str = "span",
              counter: Optional[FieldOpCounter] = None, **attrs: Any) -> Span:
        span = Span(name, kind, counter, attrs)
        span._tracer = self
        span.t0_ns = self._clock()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        _SPANS_STARTED.inc()
        return span

    def end(self, span: Span) -> None:
        span.t1_ns = self._clock()
        span._close_counter(self.cost_fn)
        # Tolerate mismatched ends (an exception may have skipped frames).
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.t1_ns = span.t1_ns
            top._close_counter(self.cost_fn)

    def span(self, name: str, kind: str = "span",
             counter: Optional[FieldOpCounter] = None, **attrs: Any) -> Span:
        """Open a span to use as a context manager (closed on exit)."""
        return self.start(name, kind, counter=counter, **attrs)

    # -- results -------------------------------------------------------------

    def walk(self) -> Iterator[Tuple[Span, int]]:
        """All spans depth-first as ``(span, depth)`` pairs."""
        def _walk(span: Span, depth: int) -> Iterator[Tuple[Span, int]]:
            yield span, depth
            for child in span.children:
                yield from _walk(child, depth + 1)
        for root in self.roots:
            yield from _walk(root, 0)

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        uninstall(self)


def install(tracer: Tracer) -> Tracer:
    """Make *tracer* the process-wide tracer instrumented code reports to."""
    global CURRENT
    CURRENT = tracer
    return tracer


def uninstall(tracer: Optional[Tracer] = None) -> None:
    """Remove the installed tracer (a no-op if *tracer* is not installed)."""
    global CURRENT
    if tracer is None or CURRENT is tracer:
        CURRENT = None


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (the request-correlation key the
    serving stack propagates client -> server -> worker, DESIGN.md §8)."""
    return os.urandom(8).hex()


def traced(name: str, kind: str = "span",
           counter: Optional[Callable] = None,
           attrs_fn: Optional[Callable] = None) -> Callable:
    """Decorator: run the function under a span when a tracer is installed.

    *counter* and *attrs_fn* are called with the wrapped function's
    arguments to resolve the counter object / extra attributes per call
    (e.g. ``counter=lambda curve, *a, **k: curve.field.counter``).
    An untraced call costs one global load and one comparison.
    """
    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            tr = CURRENT
            if tr is None:
                return fn(*args, **kwargs)
            c = counter(*args, **kwargs) if counter is not None else None
            attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else {}
            span = tr.start(name, kind, c, **attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end(span)
        return wrapper
    return deco
