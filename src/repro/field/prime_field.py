"""Prime-field base class and the generic (plain-residue) implementation.

:class:`PrimeField` defines the API all curve and protocol code is written
against; concrete subclasses provide the internal representation and the
arithmetic:

* :class:`GenericPrimeField` — plain residues with Python big-int reduction.
  Used for toy fields in tests and as the functional baseline.
* :class:`~repro.field.opf.OptimalPrimeField` — Montgomery-domain,
  incompletely reduced OPF arithmetic (the paper's library).
* :class:`~repro.field.secp160r1_field.Secp160r1Field` — the standardized
  curve's field with its dedicated pseudo-Mersenne reduction.

All three compute on Python integers.  The two paper fields produce exactly
the internal values of the word-level routines in :mod:`repro.mpa`, which
remain the reference and the source of the word-op tally each operation
stands for.

Every field owns a :class:`~repro.field.counters.FieldOpCounter`; its
counted ops on internal ints (``add_internal`` ... ``inv_internal``) bump it,
which is how the cycle model later prices a whole scalar multiplication.
The element API and the hot point formulas both go through those ops.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..obs import trace as _trace
from .counters import FieldOpCounter
from .element import FpElement
from .inversion import tonelli_shanks_sqrt


class PrimeField:
    """Abstract prime field F_p.

    Subclasses must implement the ``_``-prefixed representation hooks; user
    code only ever touches :class:`~repro.field.element.FpElement` values
    produced by :meth:`from_int` / :attr:`zero` / :attr:`one`.
    """

    #: Identifier used by the cycle model to pick per-operation costs.
    cost_profile = "generic"

    def __init__(self, p: int, name: Optional[str] = None):
        if p < 3:
            raise ValueError(f"modulus must be >= 3, got {p}")
        self.p = p
        self.bits = p.bit_length()
        self.name = name or f"F_{p}"
        self.counter = FieldOpCounter()

    # -- representation hooks (subclass responsibility) --------------------

    def int_to_internal(self, value: int) -> int:
        """Map a plain integer (any sign/magnitude) to the internal form."""
        raise NotImplementedError

    def internal_to_int(self, internal: int) -> int:
        """Map internal form back to the canonical residue in ``[0, p)``."""
        raise NotImplementedError

    def _add(self, x: int, y: int) -> int:
        raise NotImplementedError

    def _sub(self, x: int, y: int) -> int:
        raise NotImplementedError

    def _mul(self, x: int, y: int) -> int:
        raise NotImplementedError

    def _mul_small(self, x: int, constant: int) -> int:
        raise NotImplementedError

    def _inv(self, x: int) -> int:
        raise NotImplementedError

    # -- element construction ----------------------------------------------

    def from_int(self, value: int) -> FpElement:
        """Create an element from a plain integer (reduced mod p)."""
        return FpElement(self, self.int_to_internal(value % self.p))

    @property
    def zero(self) -> FpElement:
        return self.from_int(0)

    @property
    def one(self) -> FpElement:
        return self.from_int(1)

    def random_element(self, rng: Optional[random.Random] = None) -> FpElement:
        """Uniformly random element (for tests and blinding)."""
        rng = rng or random
        return self.from_int(rng.randrange(self.p))

    def all_elements(self) -> List[FpElement]:
        """Every element — only sensible for toy fields in tests."""
        if self.p > 1 << 16:
            raise ValueError("refusing to enumerate a large field")
        return [self.from_int(v) for v in range(self.p)]

    # -- counted operations on internals -----------------------------------
    #
    # The one place field ops are counted.  Each op bumps its
    # FieldOpCounter tally and computes on internal ints; when a tracer is
    # installed *and* opted into per-field-op spans
    # (``Tracer(field_ops=True)``), the count and the computation run
    # under a span so its counter delta captures the op.  The untraced
    # path pays one global load and one comparison.  Point formulas call
    # these directly and wrap each output coordinate in one element.

    def _traced(self, tr: "_trace.Tracer", name: str, hook,
                *args: int) -> int:
        """Count op *name* and run *hook* under its per-field-op span."""
        counter = self.counter
        with tr.span(name, kind="field", counter=counter):
            setattr(counter, name, getattr(counter, name) + 1)
            return hook(*args)

    def add_internal(self, x: int, y: int) -> int:
        tr = _trace.CURRENT
        if tr is not None and tr.field_ops:
            return self._traced(tr, "add", self._add, x, y)
        self.counter.add += 1
        return self._add(x, y)

    def sub_internal(self, x: int, y: int) -> int:
        tr = _trace.CURRENT
        if tr is not None and tr.field_ops:
            return self._traced(tr, "sub", self._sub, x, y)
        self.counter.sub += 1
        return self._sub(x, y)

    def neg_internal(self, x: int) -> int:
        """Negation: a subtraction from the internal zero (0 on every
        backend)."""
        tr = _trace.CURRENT
        if tr is not None and tr.field_ops:
            return self._traced(tr, "neg", self._sub, 0, x)
        self.counter.neg += 1
        return self._sub(0, x)

    def mul_internal(self, x: int, y: int) -> int:
        tr = _trace.CURRENT
        if tr is not None and tr.field_ops:
            return self._traced(tr, "mul", self._mul, x, y)
        self.counter.mul += 1
        return self._mul(x, y)

    def sqr_internal(self, x: int) -> int:
        tr = _trace.CURRENT
        if tr is not None and tr.field_ops:
            return self._traced(tr, "sqr", self._mul, x, x)
        self.counter.sqr += 1
        return self._mul(x, x)

    def mul_small_internal(self, x: int, constant: int) -> int:
        if not 0 <= constant < (1 << 16):
            raise ValueError(
                f"mul_small constant must fit in 16 bits, got {constant}"
            )
        tr = _trace.CURRENT
        if tr is not None and tr.field_ops:
            return self._traced(tr, "mul_small", self._mul_small, x,
                                constant)
        self.counter.mul_small += 1
        return self._mul_small(x, constant)

    def inv_internal(self, x: int) -> int:
        if self.internal_to_int(x) == 0:
            raise ZeroDivisionError("zero has no inverse")
        tr = _trace.CURRENT
        if tr is not None and tr.field_ops:
            return self._traced(tr, "inv", self._inv, x)
        self.counter.inv += 1
        return self._inv(x)

    # -- the element API: one element around each counted op ---------------

    def add(self, a: FpElement, b: FpElement) -> FpElement:
        return FpElement(self, self.add_internal(a.internal, b.internal))

    def sub(self, a: FpElement, b: FpElement) -> FpElement:
        return FpElement(self, self.sub_internal(a.internal, b.internal))

    def neg(self, a: FpElement) -> FpElement:
        return FpElement(self, self.neg_internal(a.internal))

    def mul(self, a: FpElement, b: FpElement) -> FpElement:
        return FpElement(self, self.mul_internal(a.internal, b.internal))

    def sqr(self, a: FpElement) -> FpElement:
        return FpElement(self, self.sqr_internal(a.internal))

    def mul_small(self, a: FpElement, constant: int) -> FpElement:
        return FpElement(self, self.mul_small_internal(a.internal, constant))

    def inv(self, a: FpElement) -> FpElement:
        return FpElement(self, self.inv_internal(a.internal))

    def pow(self, a: FpElement, exponent: int) -> FpElement:
        """Square-and-multiply exponentiation through counted operations."""
        if exponent < 0:
            return self.pow(self.inv(a), -exponent)
        result = self.one
        if exponent == 0:
            return result
        started = False
        for bit in bin(exponent)[2:]:
            if started:
                result = self.sqr(result)
            if bit == "1":
                result = self.mul(result, a) if started else a
                started = True
        return result

    def sqrt(self, a: FpElement) -> FpElement:
        """Square root via Tonelli-Shanks on the plain value (uncounted)."""
        return self.from_int(tonelli_shanks_sqrt(a.to_int(), self.p))

    def is_square(self, a: FpElement) -> bool:
        """Euler criterion on the plain value (uncounted)."""
        v = a.to_int()
        return v == 0 or pow(v, (self.p - 1) // 2, self.p) == 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, bits={self.bits})"


class GenericPrimeField(PrimeField):
    """Plain-residue field using Python's big-int reduction.

    This is the functional baseline: correct for any odd prime, with
    operation counting but no word-level modelling.  Toy fields in the test
    suite and reference cross-checks use it.
    """

    cost_profile = "generic"

    def int_to_internal(self, value: int) -> int:
        return value % self.p

    def internal_to_int(self, internal: int) -> int:
        return internal % self.p

    def _add(self, x: int, y: int) -> int:
        t = x + y
        return t - self.p if t >= self.p else t

    def _sub(self, x: int, y: int) -> int:
        t = x - y
        return t + self.p if t < 0 else t

    def _mul(self, x: int, y: int) -> int:
        return (x * y) % self.p

    def _mul_small(self, x: int, constant: int) -> int:
        return (x * constant) % self.p

    def _inv(self, x: int) -> int:
        return pow(x, -1, self.p)
