"""The hot point formulas on field internals: same points, same counts,
same per-field-op spans.

Weierstraß ``double``/``add``/``add_mixed``, Edwards ``double``/``add``/
``add_precomputed`` and Montgomery ``xdbl``/``xadd`` compute on internal
ints through the field's counted ops and build one element per output
coordinate.  On all five suites, with seeded points and the edge cases
(identity inputs, P + P, P + (-P), a projective difference), each call is
held to:

1. its affine result equals the curve's affine reference;
2. its ``FieldOpCounter.state()`` delta equals the pinned figure;
3. its field-op span names under ``Tracer(field_ops=True)`` equal the
   pinned sequence.

The pinned figures were recorded with the element-expression formulas
(``x.square() - (s + s)`` ...) that the int formulas replaced, so the
Table II accounting and the traced span trees stay what they were.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import pytest

from repro.curves.edwards import ExtendedPoint
from repro.curves.montgomery import XZPoint
from repro.curves.params import make_suite
from repro.curves.weierstrass import JacobianPoint
from repro.obs.trace import Tracer

SUITES = ("secp160r1", "weierstrass", "edwards", "glv", "montgomery")

#: case -> (thunk running one formula call, affine reference of its result)
Cases = Dict[str, Tuple[Callable[[], object], object]]


def _weierstrass_cases(curve, rng) -> Cases:
    f = curve.field
    p, q = curve.random_point(rng), curve.random_point(rng)
    neg_p = curve.affine_neg(p)

    def jac(point):
        lam = f.from_int(rng.randrange(2, f.p))
        lam_sq = lam.square()
        return JacobianPoint(point.x * lam_sq, point.y * lam_sq * lam, lam)

    pj, pj2, qj, neg_pj = jac(p), jac(p), jac(q), jac(neg_p)
    o = curve.identity
    two_p, p_plus_q = curve.affine_add(p, p), curve.affine_add(p, q)
    return {
        "double": (lambda: curve.double(pj), two_p),
        "add": (lambda: curve.add(pj, qj), p_plus_q),
        "add_mixed": (lambda: curve.add_mixed(pj, q), p_plus_q),
        "double_identity": (lambda: curve.double(o), None),
        "add_identity_left": (lambda: curve.add(o, qj), q),
        "add_identity_right": (lambda: curve.add(pj, o), p),
        "add_mixed_identity": (lambda: curve.add_mixed(o, q), q),
        "add_mixed_none": (lambda: curve.add_mixed(pj, None), p),
        "add_self": (lambda: curve.add(pj, pj2), two_p),
        "add_mixed_self": (lambda: curve.add_mixed(pj, p), two_p),
        "add_neg": (lambda: curve.add(pj, neg_pj), None),
        "add_mixed_neg": (lambda: curve.add_mixed(pj, neg_p), None),
    }


def _edwards_cases(curve, rng) -> Cases:
    f = curve.field
    p, q = curve.random_point(rng), curve.random_point(rng)
    neg_p = curve.affine_neg(p)

    def ext(point):
        lam = f.from_int(rng.randrange(2, f.p))
        return ExtendedPoint(point.x * lam, point.y * lam, lam,
                             point.x * point.y * lam)

    pe, pe2, qe, neg_pe = ext(p), ext(p), ext(q), ext(neg_p)
    o = curve.identity
    niels_q = curve.precompute(q)
    two_p, p_plus_q = curve.affine_add(p, p), curve.affine_add(p, q)
    return {
        "double": (lambda: curve.double(pe), two_p),
        "double_no_t": (lambda: curve.double(pe, compute_t=False), two_p),
        "add": (lambda: curve.add(pe, qe), p_plus_q),
        "add_no_t": (lambda: curve.add(pe, qe, compute_t=False), p_plus_q),
        "add_precomputed": (lambda: curve.add_precomputed(pe, niels_q),
                            p_plus_q),
        "double_identity": (lambda: curve.double(o),
                            curve.affine_identity()),
        "add_identity_left": (lambda: curve.add(o, qe), q),
        "add_identity_right": (lambda: curve.add(pe, o), p),
        "add_precomputed_identity": (
            lambda: curve.add_precomputed(o, niels_q), q),
        "add_self": (lambda: curve.add(pe, pe2), two_p),
        "add_neg": (lambda: curve.add(pe, neg_pe), curve.affine_identity()),
    }


def _montgomery_cases(curve, rng) -> Cases:
    f = curve.field
    p, q = curve.random_point(rng), curve.random_point(rng)
    p_minus_q = curve.affine_add(p, curve.affine_neg(q))

    def xz(point):
        lam = f.from_int(rng.randrange(2, f.p))
        return XZPoint(point.x * lam, lam)

    pz, qz, qz2, diff = xz(p), xz(q), xz(q), xz(p_minus_q)
    affine_diff = curve.xz_from_affine(p_minus_q)
    o = XZPoint(f.one, f.zero)
    p_plus_q = curve.affine_add(p, q)
    return {
        "xdbl": (lambda: curve.xdbl(pz), curve.affine_add(p, p)),
        "xadd": (lambda: curve.xadd(pz, qz, affine_diff), p_plus_q),
        "xadd_projective_diff": (lambda: curve.xadd(pz, qz, diff), p_plus_q),
        "xdbl_identity": (lambda: curve.xdbl(o), None),
        "xadd_identity": (lambda: curve.xadd(o, qz, qz2), q),
    }


@lru_cache(maxsize=None)
def _suite_cases(key: str):
    suite = make_suite(key)
    rng = random.Random(f"formula-internals:{key}")
    make_cases = {"weierstrass": _weierstrass_cases,
                  "glv": _weierstrass_cases,
                  "edwards": _edwards_cases,
                  "montgomery": _montgomery_cases}[suite.curve.family]
    return suite, make_cases(suite.curve, rng)


def _affine(curve, point):
    """The affine form of a formula result (None for the Weierstraß and
    Montgomery point at infinity; Montgomery results compare by x)."""
    if curve.family != "montgomery":
        return curve.to_affine(point)
    return None if point.is_infinity() else curve.x_affine(point)


def _reference(curve, point):
    if curve.family == "montgomery" and point is not None:
        return point.x
    return point


def measure(key: str, case: str) -> Tuple[object, Tuple[int, ...], str]:
    """(result, counter state delta, field-op span names) of one call."""
    suite, cases = _suite_cases(key)
    thunk, _ = cases[case]
    counter = suite.field.counter
    before = counter.copy()
    result = thunk()
    delta = counter.delta(before).state()
    with Tracer(field_ops=True) as tr:
        thunk()
    names = " ".join(s.name for s, _ in tr.walk() if s.kind == "field")
    return result, delta, names


def all_cases() -> List[Tuple[str, str]]:
    return [(key, case) for key in SUITES for case in _suite_cases(key)[1]]


#: (suite, case) -> (counter state delta, field-op span names), recorded
#: with the element-expression formulas.
PINNED: Dict[Tuple[str, str], Tuple[Tuple[int, ...], str]] = {
    ('secp160r1', 'double'): (
        (10, 4, 0, 4, 4, 0, 0, 200, 400, 0, 400, 80, 72),
        'sqr sqr mul add add sqr sub add mul add add sqr add sub add add '
        'add sub mul sub mul add'),
    ('secp160r1', 'add'): (
        (1, 6, 0, 12, 4, 0, 0, 400, 800, 0, 800, 160, 144),
        'sqr sqr mul mul mul mul mul mul sub sub sqr mul mul sqr sub add '
        'sub sub mul mul sub mul mul'),
    ('secp160r1', 'add_mixed'): (
        (1, 6, 0, 8, 3, 0, 0, 275, 550, 0, 550, 110, 99),
        'sqr mul mul mul sub sub sqr mul mul sqr sub add sub sub mul mul '
        'sub mul'),
    ('secp160r1', 'double_identity'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('secp160r1', 'add_identity_left'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('secp160r1', 'add_identity_right'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('secp160r1', 'add_mixed_identity'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('secp160r1', 'add_mixed_none'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('secp160r1', 'add_self'): (
        (10, 6, 0, 10, 6, 0, 0, 400, 800, 0, 800, 160, 144),
        'sqr sqr mul mul mul mul mul mul sub sub sqr sqr mul add add sqr '
        'sub add mul add add sqr add sub add add add sub mul sub mul add'),
    ('secp160r1', 'add_mixed_self'): (
        (10, 6, 0, 7, 5, 0, 0, 300, 600, 0, 600, 120, 108),
        'sqr mul mul mul sub sub sqr sqr mul add add sqr sub add mul add '
        'add sqr add sub add add add sub mul sub mul add'),
    ('secp160r1', 'add_neg'): (
        (0, 2, 0, 6, 2, 0, 0, 200, 400, 0, 400, 80, 72),
        'sqr sqr mul mul mul mul mul mul sub sub'),
    ('secp160r1', 'add_mixed_neg'): (
        (0, 2, 0, 3, 1, 0, 0, 100, 200, 0, 200, 40, 36),
        'sqr mul mul mul sub sub'),
    ('weierstrass', 'double'): (
        (10, 4, 0, 4, 4, 0, 0, 240, 610, 200, 940, 290, 80),
        'sqr sqr mul add add sqr sub add mul add add sqr add sub add add '
        'add sub mul sub mul add'),
    ('weierstrass', 'add'): (
        (1, 6, 0, 12, 4, 0, 0, 480, 1105, 200, 1250, 265, 160),
        'sqr sqr mul mul mul mul mul mul sub sub sqr mul mul sqr sub add '
        'sub sub mul mul sub mul mul'),
    ('weierstrass', 'add_mixed'): (
        (1, 6, 0, 8, 3, 0, 0, 330, 780, 150, 925, 215, 110),
        'sqr mul mul mul sub sub sqr mul mul sqr sub add sub sub mul mul '
        'sub mul'),
    ('weierstrass', 'double_identity'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('weierstrass', 'add_identity_left'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('weierstrass', 'add_identity_right'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('weierstrass', 'add_mixed_identity'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('weierstrass', 'add_mixed_none'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('weierstrass', 'add_self'): (
        (10, 6, 0, 10, 6, 0, 0, 480, 1150, 290, 1520, 400, 160),
        'sqr sqr mul mul mul mul mul mul sub sub sqr sqr mul add add sqr '
        'sub add mul add add sqr add sub add add add sub mul sub mul add'),
    ('weierstrass', 'add_mixed_self'): (
        (10, 6, 0, 7, 5, 0, 0, 360, 890, 250, 1260, 360, 120),
        'sqr mul mul mul sub sub sqr sqr mul add add sqr sub add mul add '
        'add sqr add sub add add add sub mul sub mul add'),
    ('weierstrass', 'add_neg'): (
        (0, 2, 0, 6, 2, 0, 0, 240, 540, 90, 580, 110, 80),
        'sqr sqr mul mul mul mul mul mul sub sub'),
    ('weierstrass', 'add_mixed_neg'): (
        (0, 2, 0, 3, 1, 0, 0, 120, 280, 50, 320, 70, 40),
        'sqr mul mul mul sub sub'),
    ('edwards', 'double'): (
        (3, 4, 1, 4, 4, 0, 0, 240, 585, 135, 760, 200, 80),
        'sqr sqr sqr add neg add sqr sub sub add sub sub mul mul mul mul'),
    ('edwards', 'double_no_t'): (
        (3, 4, 1, 3, 4, 0, 0, 210, 520, 125, 695, 190, 70),
        'sqr sqr sqr add neg add sqr sub sub add sub sub mul mul mul'),
    ('edwards', 'add'): (
        (3, 4, 0, 11, 0, 0, 0, 330, 770, 160, 925, 215, 110),
        'mul mul mul mul mul add add mul sub sub sub add mul sub mul mul '
        'mul mul'),
    ('edwards', 'add_no_t'): (
        (3, 4, 0, 10, 0, 0, 0, 300, 705, 150, 860, 205, 100),
        'mul mul mul mul mul add add mul sub sub sub add mul sub mul mul '
        'mul'),
    ('edwards', 'add_precomputed'): (
        (4, 3, 0, 7, 0, 0, 0, 210, 505, 125, 665, 175, 70),
        'sub mul add mul mul add sub sub add add mul mul mul mul'),
    ('edwards', 'double_identity'): (
        (3, 4, 1, 4, 4, 0, 0, 240, 585, 135, 760, 200, 80),
        'sqr sqr sqr add neg add sqr sub sub add sub sub mul mul mul mul'),
    ('edwards', 'add_identity_left'): (
        (3, 4, 0, 11, 0, 0, 0, 330, 770, 160, 925, 215, 110),
        'mul mul mul mul mul add add mul sub sub sub add mul sub mul mul '
        'mul mul'),
    ('edwards', 'add_identity_right'): (
        (3, 4, 0, 11, 0, 0, 0, 330, 770, 160, 925, 215, 110),
        'mul mul mul mul mul add add mul sub sub sub add mul sub mul mul '
        'mul mul'),
    ('edwards', 'add_precomputed_identity'): (
        (4, 3, 0, 7, 0, 0, 0, 210, 505, 125, 665, 175, 70),
        'sub mul add mul mul add sub sub add add mul mul mul mul'),
    ('edwards', 'add_self'): (
        (3, 4, 0, 11, 0, 0, 0, 330, 770, 160, 925, 215, 110),
        'mul mul mul mul mul add add mul sub sub sub add mul sub mul mul '
        'mul mul'),
    ('edwards', 'add_neg'): (
        (3, 4, 0, 11, 0, 0, 0, 330, 770, 160, 925, 215, 110),
        'mul mul mul mul mul add add mul sub sub sub add mul sub mul mul '
        'mul mul'),
    ('glv', 'double'): (
        (9, 3, 0, 3, 4, 0, 0, 210, 530, 175, 815, 250, 70),
        'sqr sqr mul add add sqr add add sqr add sub add add add sub mul '
        'sub mul add'),
    ('glv', 'add'): (
        (1, 6, 0, 12, 4, 0, 0, 480, 1105, 200, 1250, 265, 160),
        'sqr sqr mul mul mul mul mul mul sub sub sqr mul mul sqr sub add '
        'sub sub mul mul sub mul mul'),
    ('glv', 'add_mixed'): (
        (1, 6, 0, 8, 3, 0, 0, 330, 780, 150, 925, 215, 110),
        'sqr mul mul mul sub sub sqr mul mul sqr sub add sub sub mul mul '
        'sub mul'),
    ('glv', 'double_identity'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('glv', 'add_identity_left'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('glv', 'add_identity_right'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('glv', 'add_mixed_identity'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('glv', 'add_mixed_none'): (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), ''),
    ('glv', 'add_self'): (
        (9, 5, 0, 9, 6, 0, 0, 450, 1070, 265, 1395, 360, 150),
        'sqr sqr mul mul mul mul mul mul sub sub sqr sqr mul add add sqr '
        'add add sqr add sub add add add sub mul sub mul add'),
    ('glv', 'add_mixed_self'): (
        (9, 5, 0, 6, 5, 0, 0, 330, 810, 225, 1135, 320, 110),
        'sqr mul mul mul sub sub sqr sqr mul add add sqr add add sqr add '
        'sub add add add sub mul sub mul add'),
    ('glv', 'add_neg'): (
        (0, 2, 0, 6, 2, 0, 0, 240, 540, 90, 580, 110, 80),
        'sqr sqr mul mul mul mul mul mul sub sub'),
    ('glv', 'add_mixed_neg'): (
        (0, 2, 0, 3, 1, 0, 0, 120, 280, 50, 320, 70, 40),
        'sqr mul mul mul sub sub'),
    ('montgomery', 'xdbl'): (
        (2, 2, 0, 2, 2, 1, 0, 120, 290, 70, 380, 100, 40),
        'add sqr sub sqr sub mul mul_small add mul'),
    ('montgomery', 'xadd'): (
        (3, 3, 0, 3, 2, 0, 0, 150, 370, 95, 505, 140, 50),
        'add sub mul sub add mul add sqr sub sqr mul'),
    ('montgomery', 'xadd_projective_diff'): (
        (3, 3, 0, 4, 2, 0, 0, 180, 435, 105, 570, 150, 60),
        'add sub mul sub add mul add sqr sub sqr mul mul'),
    ('montgomery', 'xdbl_identity'): (
        (2, 2, 0, 2, 2, 1, 0, 120, 290, 70, 380, 100, 40),
        'add sqr sub sqr sub mul mul_small add mul'),
    ('montgomery', 'xadd_identity'): (
        (3, 3, 0, 4, 2, 0, 0, 180, 435, 105, 570, 150, 60),
        'add sub mul sub add mul add sqr sub sqr mul mul'),
}


@pytest.mark.parametrize("key,case", all_cases(),
                         ids=[f"{k}-{c}" for k, c in all_cases()])
class TestFormulaOnInternals:
    def test_matches_affine_reference(self, key, case):
        suite, cases = _suite_cases(key)
        result, _, _ = measure(key, case)
        assert (_affine(suite.curve, result)
                == _reference(suite.curve, cases[case][1]))

    def test_counter_delta_is_pinned(self, key, case):
        _, delta, _ = measure(key, case)
        assert delta == PINNED[key, case][0]

    def test_field_op_spans_are_pinned(self, key, case):
        _, _, names = measure(key, case)
        assert names == PINNED[key, case][1]


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(all_cases())
