"""Twisted Edwards curves in extended coordinates (Hişil et al.).

The paper uses the extended twisted Edwards coordinates of Hişil, Wong,
Carter and Dawson (ASIACRYPT 2008): addition costs 7M in the mixed
(Z2 = 1) dedicated form, doubling costs 3M + 4S when the T coordinate of the
result is not needed (i.e. when the next operation is another doubling).
The addition law is *complete* for a square ``a`` and non-square ``d`` — the
property that makes the double-and-add-always algorithm straightforward on
Edwards curves (paper Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..field.element import FpElement
from ..field.prime_field import PrimeField
from ..obs.trace import traced
from .point import AffinePoint, MaybePoint

#: Resolves the tracing counter from a bound point-op call.
_curve_counter = lambda self, *a, **k: self.field.counter  # noqa: E731


@dataclass(frozen=True)
class ExtendedPoint:
    """(X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.

    ``t`` may be ``None`` for intermediate results of the cheap doubling
    formula; such a point must be re-extended (one multiplication) before it
    can be an *input* to an addition.
    """

    x: FpElement
    y: FpElement
    z: FpElement
    t: Optional[FpElement]

    def is_identity(self) -> bool:
        return self.x.is_zero() and self.y == self.z


@dataclass(frozen=True)
class NielsPoint:
    """Precomputed affine operand (y - x, y + x, 2d*x*y) for 7M additions."""

    y_minus_x: FpElement
    y_plus_x: FpElement
    t2d: FpElement


class TwistedEdwardsCurve:
    """a*x^2 + y^2 = 1 + d*x^2*y^2 over a prime field.

    The identity element is the affine point (0, 1).  For ``a = -1`` the
    dedicated 8M addition (7M mixed) is used; otherwise the unified
    Hişil formula with multiplications by the small constants ``a``/``d``.
    """

    family = "edwards"

    def __init__(self, field: PrimeField, a: int, d: int,
                 name: Optional[str] = None):
        if a % field.p == d % field.p:
            raise ValueError("twisted Edwards curve requires a != d")
        if a % field.p == 0 or d % field.p == 0:
            raise ValueError("twisted Edwards curve requires a, d != 0")
        self.field = field
        self.a = field.from_int(a)
        self.d = field.from_int(d)
        self.a_int = a % field.p
        self.d_int = d % field.p
        self.name = name or f"edwards/{field.name}"

    # -- predicates -------------------------------------------------------

    def is_on_curve(self, point: MaybePoint) -> bool:
        if point is None:
            return True  # by analogy; Edwards identity is affine (0, 1)
        x_sq = point.x.square()
        y_sq = point.y.square()
        lhs = self.a * x_sq + y_sq
        rhs = self.field.one + self.d * x_sq * y_sq
        return lhs == rhs

    def is_complete(self) -> bool:
        """True when the unified addition law is complete (a square, d not)."""
        f = self.field
        return f.is_square(self.a) and not f.is_square(self.d)

    # -- conversions ---------------------------------------------------------

    @property
    def identity(self) -> ExtendedPoint:
        f = self.field
        return ExtendedPoint(f.zero, f.one, f.one, f.zero)

    def affine_identity(self) -> AffinePoint:
        return AffinePoint(self.field.zero, self.field.one)

    def from_affine(self, point: MaybePoint) -> ExtendedPoint:
        if point is None:
            return self.identity
        return ExtendedPoint(point.x, point.y, self.field.one,
                             point.x * point.y)

    def to_affine(self, point: ExtendedPoint) -> AffinePoint:
        z_inv = point.z.invert()
        return AffinePoint(point.x * z_inv, point.y * z_inv)

    def reextend(self, point: ExtendedPoint) -> ExtendedPoint:
        """Recompute a missing T coordinate.

        T = XY/Z; for a point fresh out of the 3M+4S doubling we know
        E = X*Y/Z is available as E*H decomposition, but in this model we
        simply recompute T = (X*Y) * Z^-1-free trick is unavailable, so we
        use the doubling-with-T variant instead when the next op is an add.
        """
        if point.t is not None:
            return point
        raise ValueError(
            "cannot cheaply re-extend a T-less point; "
            "request compute_t=True from double() instead"
        )

    # -- group operations -------------------------------------------------------

    def neg(self, point: ExtendedPoint) -> ExtendedPoint:
        t = None if point.t is None else -point.t
        return ExtendedPoint(-point.x, point.y, point.z, t)

    def affine_neg(self, point: AffinePoint) -> AffinePoint:
        return AffinePoint(-point.x, point.y)

    # The hot formulas run on internal ints through the field's counted
    # ops, in the op order of the element expressions they replaced, and
    # wrap each output coordinate in one element (:meth:`_extended`).

    @traced("double", kind="point", counter=_curve_counter)
    def double(self, point: ExtendedPoint,
               compute_t: bool = True) -> ExtendedPoint:
        """Extended-coordinate doubling.

        3M + 4S when ``compute_t`` is False (next op is another doubling),
        4M + 4S otherwise.  Does not require the input's T coordinate.
        """
        fld = self.field
        add, sub, mul, sqr = (fld.add_internal, fld.sub_internal,
                              fld.mul_internal, fld.sqr_internal)
        x1, y1, z1 = point.x.internal, point.y.internal, point.z.internal
        a_sq = sqr(x1)
        b_sq = sqr(y1)
        z_sq = sqr(z1)
        c = add(z_sq, z_sq)
        if self.a_int == fld.p - 1:
            d_term = fld.neg_internal(a_sq)
        else:
            d_term = mul(self.a.internal, a_sq)
        e = sub(sub(sqr(add(x1, y1)), a_sq), b_sq)  # (X + Y)^2 - A - B
        g = add(d_term, b_sq)
        f = sub(g, c)
        h = sub(d_term, b_sq)
        return self._extended(e, f, g, h, compute_t)

    @traced("add", kind="point", counter=_curve_counter)
    def add(self, p: ExtendedPoint, q: ExtendedPoint,
            compute_t: bool = True) -> ExtendedPoint:
        """Unified extended addition (works for P = Q, handles identity).

        9M plus multiplications by the constants a and d; complete when
        a is a square and d is not.  Both inputs need their T coordinate.
        """
        if p.t is None or q.t is None:
            raise ValueError("unified addition requires extended inputs (T)")
        fld = self.field
        add, sub, mul = fld.add_internal, fld.sub_internal, fld.mul_internal
        x1, y1, z1, t1 = p.x.internal, p.y.internal, p.z.internal, p.t.internal
        x2, y2, z2, t2 = q.x.internal, q.y.internal, q.z.internal, q.t.internal
        a_term = mul(x1, x2)
        b_term = mul(y1, y2)
        c_term = mul(self.d.internal, mul(t1, t2))
        d_term = mul(z1, z2)
        e = sub(sub(mul(add(x1, y1), add(x2, y2)), a_term), b_term)
        f = sub(d_term, c_term)
        g = add(d_term, c_term)
        h = sub(b_term, mul(self.a.internal, a_term))
        return self._extended(e, f, g, h, compute_t)

    def add_dedicated_am1(self, p: ExtendedPoint, q: ExtendedPoint,
                          compute_t: bool = True) -> ExtendedPoint:
        """Dedicated a = -1 addition (Hişil et al., 8M; 7M mixed).

        Not unified: requires P != ±Q and neither input the identity.
        """
        if self.a_int != self.field.p - 1:
            raise ValueError("dedicated formula requires a = -1")
        if p.t is None or q.t is None:
            raise ValueError("dedicated addition requires extended inputs (T)")
        a_term = (p.y - p.x) * (q.y - q.x)
        b_term = (p.y + p.x) * (q.y + q.x)
        c_term = p.t * (self.d + self.d) * q.t
        d_term = p.z * (q.z + q.z)
        e = b_term - a_term
        f = d_term - c_term
        g = d_term + c_term
        h = b_term + a_term
        x3 = e * f
        y3 = g * h
        z3 = f * g
        t3 = e * h if compute_t else None
        return ExtendedPoint(x3, y3, z3, t3)

    def add_mixed(self, p: ExtendedPoint, q: MaybePoint,
                  compute_t: bool = True) -> ExtendedPoint:
        """Mixed addition with an affine second operand (Z2 = 1, saves 1M)."""
        if q is None:
            return p
        return self.add(p, self.from_affine(q), compute_t)

    def precompute(self, q: AffinePoint) -> "NielsPoint":
        """Cache the (y-x, y+x, 2d*x*y) triple of an affine point.

        With this precomputation the dedicated a = -1 addition drops to the
        paper's 7M (:meth:`add_precomputed`).
        """
        if self.a_int != self.field.p - 1:
            raise ValueError("precomputed form is defined for a = -1 curves")
        two_d = self.d + self.d
        return NielsPoint(q.y - q.x, q.y + q.x, two_d * (q.x * q.y))

    def add_precomputed(self, p: ExtendedPoint, q: "NielsPoint",
                        compute_t: bool = True) -> ExtendedPoint:
        """Dedicated a = -1 mixed addition with a precomputed operand: 7M.

        This is the cost the paper quotes for twisted Edwards point addition
        (Section II-C).  Not unified: P must not equal ±Q and neither input
        may be the identity.
        """
        if p.t is None:
            raise ValueError("precomputed addition requires an extended input")
        fld = self.field
        add, sub, mul = fld.add_internal, fld.sub_internal, fld.mul_internal
        x1, y1, z1 = p.x.internal, p.y.internal, p.z.internal
        a_term = mul(sub(y1, x1), q.y_minus_x.internal)
        b_term = mul(add(y1, x1), q.y_plus_x.internal)
        c_term = mul(p.t.internal, q.t2d.internal)
        d_term = add(z1, z1)
        e = sub(b_term, a_term)
        f = sub(d_term, c_term)
        g = add(d_term, c_term)
        h = add(b_term, a_term)
        return self._extended(e, f, g, h, compute_t)

    def _extended(self, e: int, f: int, g: int, h: int,
                  compute_t: bool) -> ExtendedPoint:
        """The shared tail of the extended formulas on internals:
        (EF : GH : FG : EH), one element per coordinate; 3M, or 4M with
        the T coordinate."""
        fld = self.field
        mul = fld.mul_internal
        x3 = mul(e, f)
        y3 = mul(g, h)
        z3 = mul(f, g)
        t3 = FpElement(fld, mul(e, h)) if compute_t else None
        return ExtendedPoint(FpElement(fld, x3), FpElement(fld, y3),
                             FpElement(fld, z3), t3)

    # -- affine reference arithmetic -----------------------------------------

    def affine_add(self, p: MaybePoint, q: MaybePoint) -> MaybePoint:
        """The (twisted) Edwards addition law on affine points.

        x3 = (x1 y2 + y1 x2) / (1 + d x1 x2 y1 y2)
        y3 = (y1 y2 - a x1 x2) / (1 - d x1 x2 y1 y2)
        """
        if p is None:
            p = self.affine_identity()
        if q is None:
            q = self.affine_identity()
        f = self.field
        xx = p.x * q.x
        yy = p.y * q.y
        dxy = self.d * xx * yy
        x3 = (p.x * q.y + p.y * q.x) / (f.one + dxy)
        y3 = (yy - self.a * xx) / (f.one - dxy)
        return AffinePoint(x3, y3)

    def affine_scalar_mult(self, k: int, p: MaybePoint) -> AffinePoint:
        """Reference affine double-and-add."""
        if p is None:
            p = self.affine_identity()
        if k < 0:
            return self.affine_scalar_mult(-k, self.affine_neg(p))
        result = self.affine_identity()
        addend = p
        while k:
            if k & 1:
                result = self.affine_add(result, addend)
            addend = self.affine_add(addend, addend)
            k >>= 1
        return result

    def random_point(self, rng=None) -> AffinePoint:
        """Random affine point via rejection sampling on y."""
        import random as _random

        rng = rng or _random
        f = self.field
        while True:
            y = f.from_int(rng.randrange(f.p))
            y_sq = y.square()
            denom = self.a - self.d * y_sq
            if denom.is_zero():
                continue
            x_sq = (f.one - y_sq) / denom
            # a x^2 + y^2 = 1 + d x^2 y^2  =>  x^2 (a - d y^2) = 1 - y^2
            if not f.is_square(x_sq):
                continue
            x = x_sq.sqrt()
            if rng.randrange(2):
                x = -x
            return AffinePoint(x, y)

    def __repr__(self) -> str:
        return f"TwistedEdwardsCurve({self.name})"
