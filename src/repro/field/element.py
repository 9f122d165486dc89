"""Immutable field-element wrapper with operator overloading.

Elements carry a reference to their :class:`~repro.field.prime_field.PrimeField`
and an *internal* representation (Montgomery-domain and possibly incompletely
reduced for OPFs, plain residue for generic fields).  All arithmetic routes
through the field object so that every operation is counted — field ops and
the word-op tallies they stand for — uniformly, no matter which curve or
protocol sits on top.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .prime_field import PrimeField

IntoElement = Union["FpElement", int]


class FpElement:
    """An element of a prime field.

    Instances are immutable; arithmetic returns new elements.  Mixed
    operations with Python ints are supported (the int is mapped into the
    field first), but elements of *different* fields never mix.
    """

    __slots__ = ("field", "internal")

    def __init__(self, field: "PrimeField", internal: int):
        self.field = field
        self.internal = internal

    # -- representation -------------------------------------------------

    def to_int(self) -> int:
        """Canonical (fully reduced, plain-domain) value in ``[0, p)``."""
        return self.field.internal_to_int(self.internal)

    def __int__(self) -> int:
        return self.to_int()

    def __repr__(self) -> str:
        return f"FpElement({self.to_int():#x} in {self.field.name})"

    # -- helpers ---------------------------------------------------------

    def _coerce(self, other: IntoElement) -> "FpElement":
        if isinstance(other, FpElement):
            if other.field is not self.field:
                raise ValueError(
                    f"cannot mix elements of {self.field.name} "
                    f"and {other.field.name}"
                )
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic -------------------------------------------------------
    #
    # The binary operators go straight to the field when the operand is an
    # element of the same field (the hot path of every point formula); ints
    # and foreign elements take the _coerce route and its errors.

    def __add__(self, other: IntoElement) -> "FpElement":
        if type(other) is FpElement and other.field is self.field:
            return self.field.add(self, other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.add(self, other)

    __radd__ = __add__

    def __sub__(self, other: IntoElement) -> "FpElement":
        if type(other) is FpElement and other.field is self.field:
            return self.field.sub(self, other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.sub(self, other)

    def __rsub__(self, other: IntoElement) -> "FpElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.sub(other, self)

    def __neg__(self) -> "FpElement":
        return self.field.neg(self)

    def __mul__(self, other: IntoElement) -> "FpElement":
        if type(other) is FpElement and other.field is self.field:
            return self.field.mul(self, other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.mul(self, other)

    __rmul__ = __mul__

    def square(self) -> "FpElement":
        """Field squaring (counted separately from multiplication)."""
        return self.field.sqr(self)

    def mul_small(self, constant: int) -> "FpElement":
        """Multiplication by a short (≤ 16-bit) plain constant.

        The paper measures this at 0.25-0.3 of a full field multiplication;
        it is counted in its own category so the cycle model can price it.
        """
        return self.field.mul_small(self, constant)

    def invert(self) -> "FpElement":
        """Multiplicative inverse (Montgomery/Kaliski inverse underneath)."""
        return self.field.inv(self)

    def __truediv__(self, other: IntoElement) -> "FpElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.mul(self, self.field.inv(other))

    def __pow__(self, exponent: int) -> "FpElement":
        if not isinstance(exponent, int):
            return NotImplemented
        return self.field.pow(self, exponent)

    def sqrt(self) -> "FpElement":
        """A square root, if one exists (raises ``ValueError`` otherwise)."""
        return self.field.sqrt(self)

    # -- predicates / comparisons -----------------------------------------

    def is_zero(self) -> bool:
        return self.to_int() == 0

    def is_one(self) -> bool:
        return self.to_int() == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FpElement):
            if other.field is not self.field:
                return False
            return self.to_int() == other.to_int()
        if isinstance(other, int):
            return self.to_int() == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.to_int()))

    def __bool__(self) -> bool:
        return not self.is_zero()
