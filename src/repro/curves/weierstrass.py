"""Weierstraß curves with Jacobian-coordinate arithmetic.

The paper evaluates a conventional Weierstraß curve (and secp160r1) using
Jacobian coordinates with mixed Jacobian-affine addition — 8M + 3S per
addition, 4M + 4S per doubling for a = -3, and 3M + 4S per doubling for the
GLV case a = 0 (Section II-D).  All of those formula variants are implemented
here and selected automatically from the curve's ``a`` parameter, so the
field-operation counts seen by the cycle model match the paper's accounting.
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
class JacobianPoint:
    """A point (X : Y : Z) with x = X/Z^2, y = Y/Z^3; infinity has Z = 0."""

    x: FpElement
    y: FpElement
    z: FpElement

    def is_infinity(self) -> bool:
        return self.z.is_zero()


class WeierstrassCurve:
    """y^2 = x^3 + a*x + b over a prime field.

    Provides affine reference arithmetic (used by tests and toy-field
    enumeration) and the Jacobian formulas used for performance accounting.
    The generic scalar-multiplication algorithms in :mod:`repro.scalarmult`
    drive the curve exclusively through :meth:`double`, :meth:`add`,
    :meth:`add_mixed`, :meth:`neg` and the conversion helpers.
    """

    family = "weierstrass"
    #: #E(F_p) when exactly known (the named-curve factories pin it for
    #: secp160r1 and GLV), else None; input validation reads it.
    group_order: Optional[int] = None

    def __init__(self, field: PrimeField, a: int, b: int,
                 name: Optional[str] = None):
        self.field = field
        self.a = field.from_int(a)
        self.b = field.from_int(b)
        self.a_int = a % field.p
        self.name = name or f"weierstrass/{field.name}"
        disc = 4 * pow(a, 3, field.p) + 27 * pow(b, 2, field.p)
        if disc % field.p == 0:
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")

    # -- predicates -----------------------------------------------------------

    def is_on_curve(self, point: MaybePoint) -> bool:
        """Affine curve-equation check (infinity is on the curve)."""
        if point is None:
            return True
        x, y = point.x, point.y
        lhs = y.square()
        rhs = x.square() * x + self.a * x + self.b
        return lhs == rhs

    # -- conversions -----------------------------------------------------------

    @property
    def identity(self) -> JacobianPoint:
        one = self.field.one
        return JacobianPoint(one, one, self.field.zero)

    def from_affine(self, point: MaybePoint) -> JacobianPoint:
        if point is None:
            return self.identity
        return JacobianPoint(point.x, point.y, self.field.one)

    def to_affine(self, point: JacobianPoint) -> MaybePoint:
        """Projective-to-affine conversion: one inversion, 3M + 1S."""
        if point.is_infinity():
            return None
        z_inv = point.z.invert()
        z_inv2 = z_inv.square()
        x = point.x * z_inv2
        y = point.y * z_inv2 * z_inv
        return AffinePoint(x, y)

    # -- group operations (Jacobian) ---------------------------------------------

    def neg(self, point: JacobianPoint) -> JacobianPoint:
        return JacobianPoint(point.x, -point.y, point.z)

    # The formulas run on internal ints through the field's counted ops,
    # in the op order of the element expressions they replaced (spelled
    # out in the comments where nesting hides it), and wrap each output
    # coordinate in one element.

    @traced("double", kind="point", counter=_curve_counter)
    def double(self, point: JacobianPoint) -> JacobianPoint:
        """Jacobian doubling; the half-trace term depends on ``a``:

        * a = 0  : M3 = 3X^2            -> 3M + 4S   (GLV curves)
        * a = -3 : M3 = 3(X-Z^2)(X+Z^2) -> 4M + 4S   (secp160r1 & friends)
        * else   : M3 = 3X^2 + aZ^4     -> 4M + 6S
        """
        if point.is_infinity() or point.y.is_zero():
            return self.identity
        f = self.field
        add, sub, mul, sqr = (f.add_internal, f.sub_internal,
                              f.mul_internal, f.sqr_internal)
        x, y, z = point.x.internal, point.y.internal, point.z.internal
        y_sq = sqr(y)
        y_quad = sqr(y_sq)
        s = mul(x, y_sq)
        s = add(s, s)
        s = add(s, s)  # S = 4 * X * Y^2
        if self.a_int == 0:
            x_sq = sqr(x)
            m3 = add(add(x_sq, x_sq), x_sq)
        elif self.a_int == f.p - 3:
            z_sq = sqr(z)
            t = mul(sub(x, z_sq), add(x, z_sq))  # (X - Z^2)(X + Z^2)
            m3 = add(add(t, t), t)
        else:
            x_sq = sqr(x)
            z_sq = sqr(z)
            z_quad = sqr(z_sq)
            m3 = add(add(add(x_sq, x_sq), x_sq),
                     mul(self.a.internal, z_quad))  # 3X^2 + a Z^4
        x3 = sub(sqr(m3), add(s, s))
        eight_y4 = add(y_quad, y_quad)
        eight_y4 = add(eight_y4, eight_y4)
        eight_y4 = add(eight_y4, eight_y4)
        y3 = sub(mul(m3, sub(s, x3)), eight_y4)  # M3 (S - X3) - 8Y^4
        z3 = mul(y, z)
        z3 = add(z3, z3)
        return JacobianPoint(FpElement(f, x3), FpElement(f, y3),
                             FpElement(f, z3))

    @traced("add", kind="point", counter=_curve_counter)
    def add(self, p: JacobianPoint, q: JacobianPoint) -> JacobianPoint:
        """Full Jacobian-Jacobian addition (12M + 4S)."""
        if p.is_infinity():
            return q
        if q.is_infinity():
            return p
        f = self.field
        add, sub, mul, sqr = (f.add_internal, f.sub_internal,
                              f.mul_internal, f.sqr_internal)
        x1, y1, z1 = p.x.internal, p.y.internal, p.z.internal
        x2, y2, z2 = q.x.internal, q.y.internal, q.z.internal
        z1_sq = sqr(z1)
        z2_sq = sqr(z2)
        u1 = mul(x1, z2_sq)
        u2 = mul(x2, z1_sq)
        s1 = mul(mul(y1, z2_sq), z2)
        s2 = mul(mul(y2, z1_sq), z1)
        h = sub(u2, u1)
        r = sub(s2, s1)
        if f.internal_to_int(h) == 0:
            if f.internal_to_int(r) == 0:
                return self.double(p)
            return self.identity
        h_sq = sqr(h)
        h_cu = mul(h, h_sq)
        v = mul(u1, h_sq)
        x3 = sub(sub(sqr(r), h_cu), add(v, v))  # R^2 - H^3 - 2V
        y3 = sub(mul(r, sub(v, x3)), mul(s1, h_cu))  # R (V - X3) - S1 H^3
        z3 = mul(mul(z1, z2), h)
        return JacobianPoint(FpElement(f, x3), FpElement(f, y3),
                             FpElement(f, z3))

    @traced("add_mixed", kind="point", counter=_curve_counter)
    def add_mixed(self, p: JacobianPoint, q: MaybePoint) -> JacobianPoint:
        """Mixed Jacobian-affine addition (8M + 3S), the paper's workhorse."""
        if q is None:
            return p
        if p.is_infinity():
            return self.from_affine(q)
        f = self.field
        add, sub, mul, sqr = (f.add_internal, f.sub_internal,
                              f.mul_internal, f.sqr_internal)
        x1, y1, z1 = p.x.internal, p.y.internal, p.z.internal
        z1_sq = sqr(z1)
        u2 = mul(q.x.internal, z1_sq)
        s2 = mul(mul(q.y.internal, z1_sq), z1)
        h = sub(u2, x1)
        r = sub(s2, y1)
        if f.internal_to_int(h) == 0:
            if f.internal_to_int(r) == 0:
                return self.double(p)
            return self.identity
        h_sq = sqr(h)
        h_cu = mul(h, h_sq)
        v = mul(x1, h_sq)
        x3 = sub(sub(sqr(r), h_cu), add(v, v))  # R^2 - H^3 - 2V
        y3 = sub(mul(r, sub(v, x3)), mul(y1, h_cu))  # R (V - X3) - Y1 H^3
        z3 = mul(z1, h)
        return JacobianPoint(FpElement(f, x3), FpElement(f, y3),
                             FpElement(f, z3))

    # -- affine reference arithmetic -------------------------------------------

    def affine_add(self, p: MaybePoint, q: MaybePoint) -> MaybePoint:
        """Textbook affine chord-and-tangent addition (reference only)."""
        if p is None:
            return q
        if q is None:
            return p
        if p.x == q.x:
            if p.y == q.y:
                if p.y.is_zero():
                    return None
                slope = (p.x.square() * 3 + self.a) / (p.y + p.y)
            else:
                return None
        else:
            slope = (q.y - p.y) / (q.x - p.x)
        x3 = slope.square() - p.x - q.x
        y3 = slope * (p.x - x3) - p.y
        return AffinePoint(x3, y3)

    def affine_neg(self, p: MaybePoint) -> MaybePoint:
        if p is None:
            return None
        return AffinePoint(p.x, -p.y)

    def affine_scalar_mult(self, k: int, p: MaybePoint) -> MaybePoint:
        """Reference scalar multiplication via affine double-and-add."""
        if k < 0:
            return self.affine_scalar_mult(-k, self.affine_neg(p))
        result: MaybePoint = None
        addend = p
        while k:
            if k & 1:
                result = self.affine_add(result, addend)
            addend = self.affine_add(addend, addend)
            k >>= 1
        return result

    def lift_x(self, x: int, y_parity: int = 0) -> AffinePoint:
        """Find a point with the given x coordinate (raises if none)."""
        fx = self.field.from_int(x)
        rhs = fx.square() * fx + self.a * fx + self.b
        y = rhs.sqrt()
        if y.to_int() % 2 != y_parity % 2:
            y = -y
        return AffinePoint(fx, y)

    def random_point(self, rng=None) -> AffinePoint:
        """A uniformly-ish random affine point (rejection sampling on x)."""
        import random as _random

        rng = rng or _random
        while True:
            x = rng.randrange(self.field.p)
            try:
                return self.lift_x(x, rng.randrange(2))
            except ValueError:
                continue

    def __repr__(self) -> str:
        return f"WeierstrassCurve({self.name})"
