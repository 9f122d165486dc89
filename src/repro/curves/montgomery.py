"""Montgomery curves with x-only (X : Z) ladder arithmetic.

A Montgomery curve ``B*y^2 = x^3 + A*x^2 + x`` supports differential
addition: the x-coordinate of P + Q is computable from the x-coordinates of
P, Q and P - Q.  With the base point kept in affine form (Z = 1) the per-bit
cost of the Montgomery ladder is 5M + 4S plus one multiplication by the
small constant (A + 2)/4 — the paper's "5.3 M + 4 S per bit" once the small
multiplication is priced at 0.25-0.3 M.

Okeya-Sakurai y-recovery is included so ladder outputs can be validated
against full-point arithmetic (and so protocols can obtain complete points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..field.element import FpElement
from ..field.prime_field import PrimeField
from ..obs.trace import traced
from .point import AffinePoint, MaybePoint

#: Resolves the tracing counter from a bound point-op call.
_curve_counter = lambda self, *a, **k: self.field.counter  # noqa: E731


@dataclass(frozen=True)
class XZPoint:
    """x-only projective point (X : Z); the ladder's working representation.

    Z = 0 encodes the point at infinity.
    """

    x: FpElement
    z: FpElement

    def is_infinity(self) -> bool:
        return self.z.is_zero()


class MontgomeryCurve:
    """B*y^2 = x^3 + A*x^2 + x over a prime field.

    ``A`` is expected to be chosen so that (A + 2)/4 is a short integer (the
    paper multiplies by it with a ~0.27M small-constant multiplication); the
    constructor accepts any A and tracks whether the shortcut applies.
    """

    family = "montgomery"

    def __init__(self, field: PrimeField, a: int, b: int,
                 name: Optional[str] = None):
        a %= field.p
        b %= field.p
        if b == 0 or (a * a - 4) % field.p == 0:
            raise ValueError("invalid Montgomery curve: B(A^2 - 4) = 0")
        self.field = field
        self.a = field.from_int(a)
        self.b = field.from_int(b)
        self.a_int = a
        self.b_int = b
        if (a + 2) % 4 == 0 and (a + 2) // 4 < (1 << 16):
            #: (A + 2)/4 as a short plain constant, if it is one.
            self.a24_small: Optional[int] = (a + 2) // 4
        else:
            self.a24_small = None
        inv4 = pow(4, -1, field.p)
        self.a24 = field.from_int((a + 2) * inv4 % field.p)
        self.name = name or f"montgomery/{field.name}"

    # -- predicates -----------------------------------------------------------

    def is_on_curve(self, point: MaybePoint) -> bool:
        if point is None:
            return True
        lhs = self.b * point.y.square()
        rhs = (point.x.square() + self.a * point.x + self.field.one) * point.x
        return lhs == rhs

    # -- conversions ------------------------------------------------------------

    def xz_from_affine(self, point: AffinePoint) -> XZPoint:
        return XZPoint(point.x, self.field.one)

    def xz_from_x(self, x: int) -> XZPoint:
        return XZPoint(self.field.from_int(x), self.field.one)

    def x_affine(self, point: XZPoint) -> FpElement:
        """Affine x-coordinate (one inversion); raises at infinity."""
        if point.is_infinity():
            raise ValueError("the point at infinity has no affine x")
        return point.x * point.z.invert()

    # -- differential arithmetic ---------------------------------------------
    #
    # Both formulas run on internal ints through the field's counted ops,
    # in the op order of the element expressions they replaced, and wrap
    # each output coordinate in one element.

    @traced("xdbl", kind="point", counter=_curve_counter)
    def xdbl(self, p: XZPoint) -> XZPoint:
        """x-only doubling: 2M + 2S + 1 small-constant multiplication."""
        f = self.field
        add, sub, mul, sqr = (f.add_internal, f.sub_internal,
                              f.mul_internal, f.sqr_internal)
        x, z = p.x.internal, p.z.internal
        s = sqr(add(x, z))
        d = sqr(sub(x, z))
        c = sub(s, d)  # = 4 X Z
        x2 = mul(s, d)
        if self.a24_small is not None:
            t = f.mul_small_internal(c, self.a24_small)
        else:
            t = mul(c, self.a24.internal)
        z2 = mul(c, add(d, t))
        return XZPoint(FpElement(f, x2), FpElement(f, z2))

    @traced("xadd", kind="point", counter=_curve_counter)
    def xadd(self, p: XZPoint, q: XZPoint, diff: XZPoint) -> XZPoint:
        """Differential addition: x(P + Q) from x(P), x(Q) and x(P - Q).

        4M + 2S in general; 3M + 2S when the difference is affine (Z = 1),
        which is how the ladder uses it (the difference is the base point).
        """
        f = self.field
        add, sub, mul, sqr = (f.add_internal, f.sub_internal,
                              f.mul_internal, f.sqr_internal)
        x1, z1, x2, z2 = p.x.internal, p.z.internal, q.x.internal, q.z.internal
        da = mul(add(x1, z1), sub(x2, z2))
        cb = mul(sub(x1, z1), add(x2, z2))
        plus = sqr(add(da, cb))
        minus = sqr(sub(da, cb))
        if diff.z.is_one():
            x3 = plus  # multiplication by Z(diff) = 1 elided
        else:
            x3 = mul(diff.z.internal, plus)
        z3 = mul(diff.x.internal, minus)
        return XZPoint(FpElement(f, x3), FpElement(f, z3))

    def ladder_step(self, r0: XZPoint, r1: XZPoint,
                    base: XZPoint) -> Tuple[XZPoint, XZPoint]:
        """One Montgomery-ladder rung: (R0, R1) -> (2*R0, R0 + R1)."""
        return self.xdbl(r0), self.xadd(r0, r1, base)

    # -- y-recovery and full-point reference arithmetic ----------------------

    def recover_y(self, base: AffinePoint, xq: FpElement,
                  x_next: FpElement) -> AffinePoint:
        """Okeya-Sakurai y-coordinate recovery.

        Given the affine base point P, the affine x of Q = k*P and the affine
        x of (k+1)*P, return Q with its y coordinate.
        """
        f = self.field
        two_a = self.a + self.a
        t1 = base.x * xq + f.one
        t2 = base.x + xq + two_a
        t3 = (base.x - xq).square() * x_next
        numerator = t1 * t2 - two_a - t3
        denominator = (self.b + self.b) * base.y
        return AffinePoint(xq, numerator / denominator)

    def affine_add(self, p: MaybePoint, q: MaybePoint) -> MaybePoint:
        """Full affine chord-and-tangent addition (reference only)."""
        if p is None:
            return q
        if q is None:
            return p
        f = self.field
        if p.x == q.x:
            if p.y == q.y:
                if p.y.is_zero():
                    return None
                num = p.x.square() * 3 + self.a * (p.x + p.x) + f.one
                den = self.b * (p.y + p.y)
            else:
                return None
        else:
            num = q.y - p.y
            den = q.x - p.x
        slope = num / den
        x3 = self.b * slope.square() - self.a - p.x - q.x
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
        f = self.field
        fx = f.from_int(x)
        rhs = (fx.square() + self.a * fx + f.one) * fx / self.b
        y = rhs.sqrt()
        if y.to_int() % 2 != y_parity % 2:
            y = -y
        return AffinePoint(fx, y)

    def random_point(self, rng=None) -> AffinePoint:
        import random as _random

        rng = rng or _random
        while True:
            x = rng.randrange(self.field.p)
            try:
                return self.lift_x(x, rng.randrange(2))
            except ValueError:
                continue

    def __repr__(self) -> str:
        return f"MontgomeryCurve({self.name})"
