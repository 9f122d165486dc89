"""Word-level operation counters.

The paper argues about performance in terms of *word-level* operations: a
FIPS Montgomery multiplication costs 2s^2 + s word multiplications in general
but only s^2 + s for a low-weight OPF prime.  Every routine in
:mod:`repro.mpa` accepts an optional :class:`WordOpCounter` so tests and the
cycle model can verify those analytic counts against the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class WordOpCounter:
    """Tallies word-level primitive operations.

    Attributes mirror the operations an AVR implementation would spend cycles
    on: word multiplications (``mul``), word additions with carry (``add``),
    word subtractions with borrow (``sub``), memory traffic (``load`` /
    ``store``), and shifts (``shift``).
    """

    mul: int = 0
    add: int = 0
    sub: int = 0
    load: int = 0
    store: int = 0
    shift: int = 0

    def reset(self) -> None:
        """Zero every tally."""
        self.mul = 0
        self.add = 0
        self.sub = 0
        self.load = 0
        self.store = 0
        self.shift = 0

    def snapshot(self) -> Dict[str, int]:
        """Return the current tallies as a plain dict."""
        return {
            "mul": self.mul,
            "add": self.add,
            "sub": self.sub,
            "load": self.load,
            "store": self.store,
            "shift": self.shift,
        }

    def total(self) -> int:
        """Sum of all tallies."""
        return self.mul + self.add + self.sub + self.load + self.store + self.shift

    def __add__(self, other: "WordOpCounter") -> "WordOpCounter":
        return WordOpCounter(
            mul=self.mul + other.mul,
            add=self.add + other.add,
            sub=self.sub + other.sub,
            load=self.load + other.load,
            store=self.store + other.store,
            shift=self.shift + other.shift,
        )

    def copy(self) -> "WordOpCounter":
        """Independent copy of the current tallies."""
        return WordOpCounter(
            mul=self.mul,
            add=self.add,
            sub=self.sub,
            load=self.load,
            store=self.store,
            shift=self.shift,
        )

    def delta(self, earlier: "WordOpCounter") -> "WordOpCounter":
        """Tallies accumulated since *earlier* (a snapshot copy)."""
        return WordOpCounter(
            mul=self.mul - earlier.mul,
            add=self.add - earlier.add,
            sub=self.sub - earlier.sub,
            load=self.load - earlier.load,
            store=self.store - earlier.store,
            shift=self.shift - earlier.shift,
        )


#: Shared do-nothing counter used when the caller does not care about counts.
#: Routines *may* mutate it; callers who need accurate numbers must pass their
#: own counter instance.
NULL_COUNTER = WordOpCounter()


def word_tally(routine, *args, **kwargs) -> WordOpCounter:
    """Word-op counts of one call of *routine* on the given operands.

    Every routine in :mod:`repro.mpa` that the field layer uses is
    branch-free at word granularity, so one run on any valid operands
    yields the tally of every run; the fields measure it once at
    construction and their :class:`~repro.field.counters.FieldOpCounter`
    multiplies it by the op count when its word tallies are read.
    """
    counter = WordOpCounter()
    routine(*args, counter=counter, **kwargs)
    return counter
