"""The traced run's span recorder and per-layer ledger.

Spans are recorded from the benchmark's own files: :class:`Instrument`
wraps the public functions and methods of each ``repro`` layer in place
(every module-level reference to a wrapped function is swapped, so
``from ..mpa.words import to_words`` call sites are covered too) and
restores them on exit.  Each span is ``[name, layer, start_ns, end_ns,
parent index]``; spans stay in memory and :meth:`SpanLog.write` dumps
them when the run ends.  A layer's self time is the time its spans cover
minus the time their direct children cover.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List


class SpanLog:
    """In-memory span store shared by every wrapper of one traced phase."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, layer, clock(), 0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()

        return traced

    def span(self, name: str, layer: str = "op") -> "_Span":
        """Context manager for a span around the benchmark's own call."""
        return _Span(self, name, layer)

    # -- the ledger ----------------------------------------------------------

    def self_ns(self) -> Dict[str, int]:
        """Self time per layer, nanoseconds."""
        child = [0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, int] = defaultdict(int)
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            totals[layer] += end - start - child[i]
        return dict(totals)

    def durations_ms(self, name: str) -> List[float]:
        """Inclusive durations of every span called *name*, ms."""
        return [(end - start) / 1e6
                for n, layer, start, end, parent in self.spans if n == name]

    def top_level_count(self, layer: str) -> int:
        """Spans of *layer* whose parent belongs to another layer."""
        spans = self.spans
        return sum(1 for name, lay, start, end, parent in spans
                   if lay == layer and (parent < 0 or spans[parent][1] != layer))

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class _Span:
    def __init__(self, log: SpanLog, name: str, layer: str):
        self._log, self._name, self._layer = log, name, layer

    def __enter__(self):
        log = self._log
        self._index = len(log.spans)
        self._record = [self._name, self._layer, time.perf_counter_ns(), 0,
                        log._stack[-1] if log._stack else -1]
        log.spans.append(self._record)
        log._stack.append(self._index)
        return self

    def __exit__(self, *exc):
        self._log._stack.pop()
        self._record[3] = time.perf_counter_ns()
        return False


class Instrument:
    """Swap wrapped versions of functions/methods in; undo on exit."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._undo: List[tuple] = []

    def method(self, cls: type, attr: str, name: str, layer: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.log.wrap(name, layer, original))
        self._undo.append((cls, attr, original))

    def function(self, fn: Callable, name: str, layer: str) -> None:
        wrapper = self.log.wrap(name, layer, fn)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, fn))

    def __enter__(self) -> "Instrument":
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


def instrument_compute(inst: Instrument) -> None:
    """Wrap the host compute stack: protocol -> scalar mult -> point op ->
    field op -> ``repro.mpa`` words."""
    from repro import mpa
    from repro.curves import (
        GLVCurve,
        MontgomeryCurve,
        TwistedEdwardsCurve,
        WeierstrassCurve,
    )
    from repro.field.prime_field import PrimeField
    from repro.protocols import Ecdsa, FullPointEcdh, Schnorr, XOnlyEcdh
    from repro.scalarmult import (
        montgomery_ladder_x,
        montgomery_ladder_x_checked,
        scalar_mult_naf,
        shamir_scalar_mult,
    )
    from repro.scalarmult.fixed_base import FixedBaseTable

    inst.method(FullPointEcdh, "shared_secret", "ecdh", "protocols")
    inst.method(XOnlyEcdh, "shared_secret", "xonly_ecdh", "protocols")
    inst.method(Ecdsa, "sign", "ecdsa_sign", "protocols")
    inst.method(Schnorr, "sign", "schnorr_sign", "protocols")

    inst.function(scalar_mult_naf, "naf", "scalarmult")
    inst.function(shamir_scalar_mult, "shamir", "scalarmult")
    inst.function(montgomery_ladder_x, "ladder_x", "scalarmult")
    inst.function(montgomery_ladder_x_checked, "ladder_x", "scalarmult")
    inst.method(FixedBaseTable, "multiply", "fixed_base", "scalarmult")

    point_ops = {
        WeierstrassCurve: ("double", "add", "add_mixed", "neg",
                           "to_affine", "from_affine", "affine_add"),
        GLVCurve: ("endomorphism", "endomorphism_jacobian"),
        TwistedEdwardsCurve: ("double", "add", "add_dedicated_am1",
                              "add_mixed", "add_precomputed", "precompute",
                              "neg", "reextend", "to_affine", "from_affine",
                              "affine_add"),
        MontgomeryCurve: ("xdbl", "xadd", "ladder_step", "x_affine",
                          "recover_y", "affine_add", "lift_x"),
    }
    for cls, names in point_ops.items():
        for attr in names:
            if attr in cls.__dict__:
                inst.method(cls, attr, f"{cls.__name__}.{attr}", "curves")
    for attr in ("add", "sub", "neg", "mul", "sqr", "mul_small", "inv"):
        inst.method(PrimeField, attr, f"field.{attr}", "field")
    for attr in mpa.__all__:
        fn = getattr(mpa, attr)
        if callable(fn) and not isinstance(fn, type):
            inst.function(fn, f"mpa.{attr}", "mpa")


def span_p50_ms(log: SpanLog, name: str) -> float:
    values = log.durations_ms(name)
    return statistics.median(values) if values else 0.0
