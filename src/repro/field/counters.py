"""Field-level operation counters.

The paper prices a scalar multiplication as a weighted sum of field
operations (e.g. "5.3 M + 4 S per bit" for the Montgomery ladder).  Every
:class:`~repro.field.prime_field.PrimeField` carries a
:class:`FieldOpCounter`; the point arithmetic and scalar-multiplication
algorithms are instrumented simply by being written on top of the field API.
The cycle model (:mod:`repro.model.opcost`) converts these tallies into
cycle estimates per processor mode.

The word-level tallies a field op stands for are constants per field (every
:mod:`repro.mpa` routine the fields mirror is branch-free at word
granularity), so a counter stores op counts only; :attr:`FieldOpCounter.words`
is computed from them and the field's word costs when it is read.
"""

from __future__ import annotations

import operator
from typing import Dict, Optional, Tuple

from ..mpa.counters import WordOpCounter

#: Field-level tally names, in :meth:`FieldOpCounter.state` order.
FIELD_OPS = ("add", "sub", "neg", "mul", "sqr", "mul_small", "inv")
#: Word-level tally names, in the order they follow :data:`FIELD_OPS` in
#: :meth:`FieldOpCounter.state`.
WORD_OPS = ("mul", "add", "sub", "load", "store", "shift")

#: The :data:`FIELD_OPS` counts of a counter as a tuple (what a span
#: records when it opens).
op_counts = operator.attrgetter(*FIELD_OPS)

#: Word costs of one (add, sub or neg, mul or sqr), each in
#: :data:`WORD_OPS` order.
WordCosts = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]


class FieldOpCounter:
    """Tallies of field-level operations, priced in word-level operations.

    The seven :data:`FIELD_OPS` counts are the only state that changes.  A
    field with constant per-op word costs installs them once, at
    construction, with :meth:`derive_words`; :attr:`words` is then
    ``add·A + (sub+neg)·S + (mul+sqr)·M``, computed on every read.  Without
    word costs (generic fields) the words are zero.  :meth:`copy` and
    :meth:`delta` keep the costs, so a delta prices its own words.
    """

    __slots__ = FIELD_OPS + ("costs",)

    def __init__(self, add: int = 0, sub: int = 0, neg: int = 0,
                 mul: int = 0, sqr: int = 0, mul_small: int = 0,
                 inv: int = 0, costs: Optional[WordCosts] = None):
        self.add = add
        self.sub = sub
        self.neg = neg
        self.mul = mul
        self.sqr = sqr
        self.mul_small = mul_small
        self.inv = inv
        self.costs = costs

    def derive_words(self, add: WordOpCounter, sub: WordOpCounter,
                     mul: WordOpCounter) -> None:
        """Price every add at *add*, sub or neg at *sub* and mul or sqr at
        *mul* word ops.  A field calls this once, at construction."""
        if any(op_counts(self)):
            raise ValueError("word costs are set before any op is counted")
        self.costs = tuple(tuple(getattr(cost, k) for k in WORD_OPS)
                           for cost in (add, sub, mul))

    @property
    def words(self) -> WordOpCounter:
        """Word-level tallies of the ops counted so far."""
        if self.costs is None:
            return WordOpCounter()
        a, s, m = self.add, self.sub + self.neg, self.mul + self.sqr
        return WordOpCounter(*[a * ca + s * cs + m * cm
                               for ca, cs, cm in zip(*self.costs)])

    def reset(self) -> None:
        """Zero all tallies (the word costs stay)."""
        self.add = 0
        self.sub = 0
        self.neg = 0
        self.mul = 0
        self.sqr = 0
        self.mul_small = 0
        self.inv = 0

    def snapshot(self) -> Dict[str, int]:
        """Current field-level tallies as a plain dict."""
        return dict(zip(FIELD_OPS, op_counts(self)))

    def state(self) -> Tuple[int, ...]:
        """Every tally as one flat tuple — :data:`FIELD_OPS` then
        :data:`WORD_OPS`."""
        w = self.words
        return op_counts(self) + (w.mul, w.add, w.sub, w.load, w.store,
                                  w.shift)

    def delta(self, earlier: "FieldOpCounter") -> "FieldOpCounter":
        """Tallies accumulated since *earlier* (a snapshot copy), priced
        at this counter's word costs."""
        return FieldOpCounter(*map(operator.sub, op_counts(self),
                                   op_counts(earlier)), costs=self.costs)

    def copy(self) -> "FieldOpCounter":
        """Independent copy of the tallies, with the same word costs."""
        return FieldOpCounter(*op_counts(self), costs=self.costs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldOpCounter):
            return NotImplemented
        return self.state() == other.state()

    __hash__ = None  # type: ignore[assignment]  # mutable

    def __repr__(self) -> str:
        ops = ", ".join(f"{k}={getattr(self, k)}" for k in FIELD_OPS)
        return f"FieldOpCounter({ops}, words={self.words!r})"
