"""Protocol input validation — the first fault/invalid-curve countermeasure.

Every hardened protocol path (DESIGN.md §7 "Fault model & countermeasures")
funnels untrusted inputs through these checks before any secret-dependent
arithmetic runs:

* :func:`validate_scalar` — range sanity for private scalars: positive,
  below (and not a multiple of) the subgroup order when it is known,
  within the fixed-length bit budget otherwise.
* :func:`validate_public_point` — membership of the *named* curve (the
  classic invalid-curve/twist attack gate) plus, when the prime subgroup
  order is known, an ``order * P == O`` subgroup check that also rejects
  every small-order point.  Where that order is the curve's whole group
  order ``#E`` (cofactor 1: secp160r1 and GLV), Lagrange's theorem gives
  ``order * P == O`` for every point on the curve, so membership alone
  decides and the scalar multiplication is skipped.  Without an order
  (the OPF Edwards and Weierstraß suites) it refuses the low-order points
  a coordinate test finds: ``x = 0`` or ``y = 0`` on Edwards (the
  identity and the points of order 2 and 4), ``y = 0`` on Weierstraß and
  Montgomery curves (order 2).
* :func:`validate_montgomery_x` — the x-only variant: lifts the received
  x-coordinate (rejecting twist x-values, since the reproduction's curves
  are not twist-secure) and refuses ``x = 0``, the order-2 point ``(0, 0)``
  a fault or a malicious peer could use to force a degenerate shared
  secret.

Validation failures raise ``ValueError`` — these are *input* rejections,
distinct from :class:`~repro.faults.model.FaultDetectedError`, which
hardened code raises when its own computation trips a countermeasure.
"""

from __future__ import annotations

from typing import Optional

from .edwards import TwistedEdwardsCurve
from .montgomery import MontgomeryCurve
from .point import AffinePoint
from .weierstrass import WeierstrassCurve

__all__ = [
    "validate_montgomery_x",
    "validate_public_point",
    "validate_scalar",
]


def validate_scalar(k: int, order: Optional[int] = None,
                    bits: Optional[int] = None) -> int:
    """Check a private scalar; returns it unchanged on success."""
    if not isinstance(k, int):
        raise ValueError("scalar must be an int")
    if k <= 0:
        raise ValueError("scalar must be positive")
    if order is not None:
        if k % order == 0:
            raise ValueError("scalar is a multiple of the group order")
        if k >= order:
            raise ValueError("scalar must be below the group order")
    if bits is not None and k.bit_length() > bits:
        raise ValueError(f"scalar does not fit in {bits} bits")
    return k


def validate_public_point(curve, point: AffinePoint,
                          order: Optional[int] = None) -> AffinePoint:
    """Check a received public point; returns it unchanged on success.

    Works for any curve family exposing ``is_on_curve`` and (when *order*
    is given) ``affine_scalar_mult`` — Weierstraß, GLV, Montgomery.  The
    subgroup check runs unless *order* equals the curve's ``group_order``
    (#E, pinned only where it is exactly known): every on-curve point then
    has ``order * P == O`` already.  Without *order*, Edwards points with
    ``x = 0`` or ``y = 0`` and Weierstraß or Montgomery points with
    ``y = 0`` are refused (no scalar multiplication either way).
    """
    if point is None:
        raise ValueError("public point must not be the point at infinity")
    if not curve.is_on_curve(point):
        raise ValueError("public point is not on the curve")
    if order is None:
        if isinstance(curve, TwistedEdwardsCurve):
            if point.x.is_zero() or point.y.is_zero():
                raise ValueError(
                    "x = 0 or y = 0 is the identity or a point of order 2 "
                    "or 4")
        elif isinstance(curve, (WeierstrassCurve, MontgomeryCurve)) \
                and point.y.is_zero():
            raise ValueError("y = 0 is a point of order 2")
    elif order != getattr(curve, "group_order", None):
        if curve.affine_scalar_mult(order, point) is not None:
            raise ValueError(
                "public point is not in the prime-order subgroup")
    return point


def validate_montgomery_x(curve: MontgomeryCurve, x: int,
                          order: Optional[int] = None) -> AffinePoint:
    """Check a received x-only public value; returns a lifted point.

    ``lift_x`` raises for x-coordinates without a point on the curve
    (i.e. values on the quadratic twist); ``x = 0`` is the order-2 point.
    """
    if x % curve.field.p == 0:
        raise ValueError("x = 0 is the small-order point (0, 0)")
    try:
        point = curve.lift_x(x)
    except ValueError:
        raise ValueError(
            "x-coordinate has no point on the curve (twist value)"
        ) from None
    if order is not None:
        if curve.affine_scalar_mult(order, point) is not None:
            raise ValueError(
                "public point is not in the prime-order subgroup")
    return point
