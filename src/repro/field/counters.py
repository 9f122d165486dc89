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
granularity), so an operation only bumps its field-op count; the counter
derives :attr:`FieldOpCounter.words` from the counts when it is read.
"""

from __future__ import annotations

import operator
from typing import Dict, Optional, Sequence, Tuple

from ..mpa.counters import WordOpCounter

#: Field-level tally names, in :meth:`FieldOpCounter.state` order.
FIELD_OPS = ("add", "sub", "neg", "mul", "sqr", "mul_small", "inv")
#: Word-level tally names, in the order they follow :data:`FIELD_OPS` in
#: :meth:`FieldOpCounter.state`.
WORD_OPS = ("mul", "add", "sub", "load", "store", "shift")
#: Distinct intervals a counter keeps priced for :meth:`FieldOpCounter.since`
#: before it starts over.
SINCE_MEMO_SIZE = 256


class FieldOpCounter:
    """Tallies of field-level operations plus embedded word-level tallies.

    A field with constant per-op word costs installs them once with
    :meth:`derive_words`.  Reading :attr:`words` then folds
    ``add·A + (sub+neg)·S + (mul+sqr)·M`` for the ops counted since the
    previous read into a :class:`~repro.mpa.counters.WordOpCounter` — O(1)
    per read, nothing per op.  The returned object is the counter's own and
    stays mutable: direct changes to it persist and later ops add on top.
    Without word costs (generic fields, copies, deltas) :attr:`words` is a
    plain stored tally.  Spans read intervals through :meth:`mark` and
    :meth:`since`, which price each distinct interval once.
    """

    __slots__ = FIELD_OPS + ("_words", "_costs", "_folded", "_since")

    def __init__(self, add: int = 0, sub: int = 0, neg: int = 0,
                 mul: int = 0, sqr: int = 0, mul_small: int = 0,
                 inv: int = 0, words: Optional[WordOpCounter] = None):
        self.add = add
        self.sub = sub
        self.neg = neg
        self.mul = mul
        self.sqr = sqr
        self.mul_small = mul_small
        self.inv = inv
        self._words = words if words is not None else WordOpCounter()
        #: Word-op costs of an (add, sub or neg, mul or sqr), lane-major:
        #: the three costs of WORD_OPS[0], then of WORD_OPS[1], ...
        self._costs: Optional[Tuple[int, ...]] = None
        #: The (add, sub + neg, mul + sqr) counts already in ``_words``.
        self._folded = (0, 0, 0)
        #: :meth:`since` results by raw interval.
        self._since: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def derive_words(self, add: WordOpCounter, sub: WordOpCounter,
                     mul: WordOpCounter) -> None:
        """Price every later add at *add*, sub or neg at *sub* and mul or
        sqr at *mul* word ops (ops counted so far keep their old price)."""
        self.words  # fold the ops counted so far at the old price
        self._costs = tuple(getattr(cost, k) for k in WORD_OPS
                            for cost in (add, sub, mul))
        self._since.clear()

    def _priced(self, a: int, s: int, m: int) -> Tuple[int, ...]:
        """Word tallies (:data:`WORD_OPS` order) of *a* adds, *s* subs or
        negs and *m* muls or sqrs."""
        (a_mul, s_mul, m_mul, a_add, s_add, m_add,
         a_sub, s_sub, m_sub, a_load, s_load, m_load,
         a_store, s_store, m_store,
         a_shift, s_shift, m_shift) = self._costs
        return (a * a_mul + s * s_mul + m * m_mul,
                a * a_add + s * s_add + m * m_add,
                a * a_sub + s * s_sub + m * m_sub,
                a * a_load + s * s_load + m * m_load,
                a * a_store + s * s_store + m * m_store,
                a * a_shift + s * s_shift + m * m_shift)

    @property
    def words(self) -> WordOpCounter:
        """Word-level tallies of the ops counted so far."""
        w = self._words
        if self._costs is not None:
            a, s, m = self.add, self.sub + self.neg, self.mul + self.sqr
            fa, fs, fm = self._folded
            if a != fa or s != fs or m != fm:
                self._folded = (a, s, m)
                d_mul, d_add, d_sub, d_load, d_store, d_shift = \
                    self._priced(a - fa, s - fs, m - fm)
                w.mul += d_mul
                w.add += d_add
                w.sub += d_sub
                w.load += d_load
                w.store += d_store
                w.shift += d_shift
        return w

    def reset(self) -> None:
        """Zero all field- and word-level tallies."""
        self.add = 0
        self.sub = 0
        self.neg = 0
        self.mul = 0
        self.sqr = 0
        self.mul_small = 0
        self.inv = 0
        self._words.reset()
        self._folded = (0, 0, 0)

    def snapshot(self) -> Dict[str, int]:
        """Current field-level tallies as a plain dict."""
        return {
            "add": self.add,
            "sub": self.sub,
            "neg": self.neg,
            "mul": self.mul,
            "sqr": self.sqr,
            "mul_small": self.mul_small,
            "inv": self.inv,
        }

    def state(self) -> Tuple[int, ...]:
        """Every tally as one flat tuple — :data:`FIELD_OPS` then
        :data:`WORD_OPS`."""
        w = self.words
        return (self.add, self.sub, self.neg, self.mul, self.sqr,
                self.mul_small, self.inv,
                w.mul, w.add, w.sub, w.load, w.store, w.shift)

    def mark(self) -> Tuple[int, ...]:
        """An opaque snapshot for :meth:`since`: the stored tallies as they
        are, with nothing derived — what a span takes when it opens."""
        w = self._words
        return (self.add, self.sub, self.neg, self.mul, self.sqr,
                self.mul_small, self.inv,
                w.mul, w.add, w.sub, w.load, w.store, w.shift) + self._folded

    def since(self, mark: Tuple[int, ...]) -> Tuple[int, ...]:
        """The :meth:`state` of what was counted since *mark* was taken.

        Priced once per distinct raw interval: the spans of one point
        operation see the same few intervals over and over.
        """
        d = tuple(map(operator.sub, self.mark(), mark))
        if self._costs is None:
            return d[:13]
        delta = self._since.get(d)
        if delta is None:
            # Ops folded into the stored word tallies since *mark* are
            # already in d[7:13]; price the rest.
            priced = self._priced(d[0] - d[13], d[1] + d[2] - d[14],
                                  d[3] + d[4] - d[15])
            delta = d[:7] + tuple(map(operator.add, d[7:13], priced))
            if len(self._since) >= SINCE_MEMO_SIZE:
                self._since.clear()
            self._since[d] = delta
        return delta

    @classmethod
    def from_state(cls, state: Sequence[int]) -> "FieldOpCounter":
        """The counter whose :meth:`state` is *state*."""
        n = len(FIELD_OPS)
        return cls(*state[:n], words=WordOpCounter(*state[n:]))

    def mul_equivalents(self, sqr_weight: float = 1.0, addsub_weight: float = 0.05,
                        mul_small_weight: float = 0.27) -> float:
        """Rough cost in units of one field multiplication.

        Default weights follow the paper: squaring is implemented by the same
        multiplication routine (weight 1.0), a multiplication by a short
        constant costs 0.25-0.3 M (we use the midpoint), and addition or
        subtraction is roughly 240/3314 of a multiplication in CA mode.
        """
        return (
            self.mul
            + sqr_weight * self.sqr
            + mul_small_weight * self.mul_small
            + addsub_weight * (self.add + self.sub + self.neg)
        )

    def delta(self, earlier: "FieldOpCounter") -> "FieldOpCounter":
        """Tallies accumulated since *earlier* (a snapshot copy).

        Carries the embedded word-level delta as well, so a delta of an
        OPF field counter prices both the field ops and the word ops
        they decomposed into.
        """
        return FieldOpCounter(
            add=self.add - earlier.add,
            sub=self.sub - earlier.sub,
            neg=self.neg - earlier.neg,
            mul=self.mul - earlier.mul,
            sqr=self.sqr - earlier.sqr,
            mul_small=self.mul_small - earlier.mul_small,
            inv=self.inv - earlier.inv,
            words=self.words.delta(earlier.words),
        )

    def copy(self) -> "FieldOpCounter":
        """Independent copy of the field- and word-level tallies."""
        return FieldOpCounter(
            add=self.add,
            sub=self.sub,
            neg=self.neg,
            mul=self.mul,
            sqr=self.sqr,
            mul_small=self.mul_small,
            inv=self.inv,
            words=self.words.copy(),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldOpCounter):
            return NotImplemented
        return self.state() == other.state()

    __hash__ = None  # type: ignore[assignment]  # mutable

    def __repr__(self) -> str:
        ops = ", ".join(f"{k}={getattr(self, k)}" for k in FIELD_OPS)
        return f"FieldOpCounter({ops}, words={self.words!r})"
