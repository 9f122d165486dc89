"""Field-level operation counters.

The paper prices a scalar multiplication as a weighted sum of field
operations (e.g. "5.3 M + 4 S per bit" for the Montgomery ladder).  Every
:class:`~repro.field.prime_field.PrimeField` carries a
:class:`FieldOpCounter`; the point arithmetic and scalar-multiplication
algorithms are instrumented simply by being written on top of the field API.
The cycle model (:mod:`repro.model.opcost`) converts these tallies into
cycle estimates per processor mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from ..mpa.counters import WordOpCounter

#: Field-level tally names, in :meth:`FieldOpCounter.state` order.
FIELD_OPS = ("add", "sub", "neg", "mul", "sqr", "mul_small", "inv")
#: Word-level tally names, in the order they follow :data:`FIELD_OPS` in
#: :meth:`FieldOpCounter.state`.
WORD_OPS = ("mul", "add", "sub", "load", "store", "shift")


@dataclass
class FieldOpCounter:
    """Tallies of field-level operations plus embedded word-level tallies."""

    add: int = 0
    sub: int = 0
    neg: int = 0
    mul: int = 0
    sqr: int = 0
    mul_small: int = 0
    inv: int = 0
    words: WordOpCounter = field(default_factory=WordOpCounter)

    def reset(self) -> None:
        """Zero all field- and word-level tallies."""
        self.add = 0
        self.sub = 0
        self.neg = 0
        self.mul = 0
        self.sqr = 0
        self.mul_small = 0
        self.inv = 0
        self.words.reset()

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
        :data:`WORD_OPS` — cheap to take and to subtract (span open/close)."""
        w = self.words
        return (self.add, self.sub, self.neg, self.mul, self.sqr,
                self.mul_small, self.inv,
                w.mul, w.add, w.sub, w.load, w.store, w.shift)

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
