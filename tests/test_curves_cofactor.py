"""Cofactor-1 curves: the proof that #E = n, and the validation short path.

``validate_public_point`` skips the ``n * P == O`` scalar multiplication
exactly when the order it is given equals the curve's pinned group order
#E.  That is sound only if #E really is n, so this module proves it for
secp160r1 and GLV from checkable facts:

* n is prime and ``n * G = O`` with ``G != O``, so G has order n and
  n divides #E;
* #E lies in the Hasse interval ``[p + 1 - 2 sqrt(p), p + 1 + 2 sqrt(p)]``,
  which contains n but not 2n (nor any larger multiple), so #E = n and
  the cofactor h = #E / n is 1.

It then holds the short path equal to the full check on accepted and
rejected inputs alike, and shows that no other curve or order takes it.
"""

import random
from math import isqrt

import pytest

from repro.curves import WeierstrassCurve
from repro.curves.paramgen import is_probable_prime
from repro.curves.params import make_suite
from repro.curves.point import AffinePoint
from repro.curves.validate import validate_public_point
from repro.field import GenericPrimeField

COFACTOR_ONE = ("secp160r1", "glv")


def _in_hasse_interval(count: int, p: int) -> bool:
    """``|count - (p + 1)| <= 2 sqrt(p)``, decided on integers."""
    return (count - p - 1) ** 2 <= 4 * p


def _full_check(curve, point, order) -> bool:
    """The validation without the short path: on the curve and
    ``order * P == O``."""
    return (point is not None and curve.is_on_curve(point)
            and curve.affine_scalar_mult(order, point) is None)


def _accepts(curve, point, order) -> bool:
    try:
        validate_public_point(curve, point, order)
    except ValueError:
        return False
    return True


class _CountingMults:
    """Counts ``affine_scalar_mult`` calls on one curve instance."""

    def __init__(self, monkeypatch, curve):
        self.calls = 0
        inner = curve.affine_scalar_mult

        def spy(k, point):
            self.calls += 1
            return inner(k, point)

        monkeypatch.setattr(curve, "affine_scalar_mult", spy)


@pytest.fixture(params=COFACTOR_ONE)
def suite(request):
    return make_suite(request.param)


class TestCofactorOneProof:
    def test_order_is_prime(self, suite):
        assert is_probable_prime(suite.order)

    def test_order_annihilates_the_base_point(self, suite):
        assert suite.base is not None
        assert suite.curve.affine_scalar_mult(suite.order, suite.base) is None

    def test_hasse_interval_holds_n_but_not_2n(self, suite):
        p, n = suite.field.p, suite.order
        assert _in_hasse_interval(n, p)
        assert not _in_hasse_interval(2 * n, p)
        # Every larger multiple lies further above the interval.
        assert 2 * n > p + 1 + 2 * isqrt(p)

    def test_curve_pins_the_group_order(self, suite):
        assert suite.curve.group_order == suite.order
        assert suite.cofactor == 1

    def test_functional_suite_pins_it_too(self, suite):
        functional = make_suite(suite.key, functional=True)
        assert functional.curve.group_order == suite.order
        assert functional.cofactor == 1


class TestShortPathMatchesFullCheck:
    """On cofactor-1 curves the short path and ``n * P == O`` agree."""

    def _points(self, suite, seed):
        curve, field, rng = suite.curve, suite.field, random.Random(seed)
        subgroup = [curve.affine_scalar_mult(rng.randrange(1, suite.order),
                                             suite.base) for _ in range(6)]
        off_curve = [AffinePoint(pt.x, pt.y + 1) for pt in subgroup[:3]]
        off_curve += [AffinePoint(field.from_int(rng.randrange(field.p)),
                                  field.from_int(rng.randrange(field.p)))
                      for _ in range(3)]
        return subgroup, off_curve, self._invalid_curve_points(suite, rng)

    def _invalid_curve_points(self, suite, rng, count=4):
        """Points of ``y^2 = x^3 + a x + b'`` for random ``b' != b``."""
        curve, field = suite.curve, suite.field
        points = []
        while len(points) < count:
            b2 = field.from_int(rng.randrange(field.p))
            if b2 == curve.b:
                continue
            x = field.from_int(rng.randrange(field.p))
            rhs = x.square() * x + curve.a * x + b2
            if not field.is_square(rhs):
                continue
            points.append(AffinePoint(x, rhs.sqrt()))
        return points

    def test_accept_reject_agree(self, suite):
        subgroup, off_curve, invalid = self._points(suite, f"{suite.key}:7")
        curve, n = suite.curve, suite.order
        for point in subgroup + off_curve + invalid + [None]:
            assert _accepts(curve, point, n) == _full_check(curve, point, n)
        assert all(_accepts(curve, pt, n) for pt in subgroup)
        assert not any(_accepts(curve, pt, n) for pt in off_curve + invalid)
        assert not _accepts(curve, None, n)

    def test_short_path_runs_no_scalar_mult(self, suite, monkeypatch):
        spy = _CountingMults(monkeypatch, suite.curve)
        validate_public_point(suite.curve, suite.base, suite.order)
        assert spy.calls == 0


class TestOtherCurvesRunTheFullCheck:
    @pytest.mark.parametrize("key", ["weierstrass", "edwards", "montgomery"])
    def test_suites_without_group_order(self, key, monkeypatch):
        suite = make_suite(key)
        assert suite.order is None and suite.cofactor is None
        assert getattr(suite.curve, "group_order", None) is None
        spy = _CountingMults(monkeypatch, suite.curve)
        # Any caller-supplied order is checked in full.
        with pytest.raises(ValueError, match="subgroup"):
            validate_public_point(suite.curve, suite.base, 3)
        assert spy.calls == 1

    def test_caller_order_other_than_group_order(self, monkeypatch):
        suite = make_suite("secp160r1")
        spy = _CountingMults(monkeypatch, suite.curve)
        with pytest.raises(ValueError, match="subgroup"):
            validate_public_point(suite.curve, suite.base, suite.order - 2)
        validate_public_point(suite.curve, suite.base, 2 * suite.order)
        assert spy.calls == 2

    def test_toy_cofactor_60_curve(self, monkeypatch):
        # y^2 = x^3 + x over F_1019: #E = 1020 = 60 * 17.
        field = GenericPrimeField(1019)
        curve = WeierstrassCurve(field, 1, 0, name="toy-supersingular")
        base = AffinePoint(field.from_int(48), field.from_int(155))
        two_torsion = AffinePoint(field.from_int(0), field.from_int(0))
        spy = _CountingMults(monkeypatch, curve)
        for group_order in (None, 1020):
            curve.group_order = group_order
            validate_public_point(curve, base, 17)
            with pytest.raises(ValueError, match="subgroup"):
                validate_public_point(curve, two_torsion, 17)
        assert spy.calls == 4
