"""Frozen 160-bit curve parameters for the reproduction.

The OPF suite was produced by :mod:`repro.curves.paramgen` (re-run it to
re-derive everything); secp160r1 uses the public SECG constants.  The test
suite re-verifies every value: primality, curve-equation membership of the
base points, the GLV order/β/λ relations, and the Montgomery↔Edwards
birational link.

Naming follows the paper's Table II rows:

* ``SECP160R1``  — the standardized reference curve (generalized-Mersenne
  prime, separate assembly-style arithmetic path).
* ``OPF_WEIERSTRASS``, ``OPF_MONTGOMERY``, ``OPF_EDWARDS`` — over the
  paper's example prime ``p = 65356 * 2^144 + 1``.
* ``OPF_GLV`` — over ``p = 65361 * 2^144 + 1`` (p ≡ 1 mod 3), with exact
  prime group order obtained via Cornacchia point counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..field.opf import OptimalPrimeField
from ..field.prime_field import GenericPrimeField, PrimeField
from ..field.secp160r1_field import Secp160r1Field
from .edwards import TwistedEdwardsCurve
from .glv import GLVCurve
from .montgomery import MontgomeryCurve
from .point import AffinePoint
from .weierstrass import WeierstrassCurve

# ---------------------------------------------------------------------------
# OPF primes (u * 2^144 + 1 with a 16-bit u)
# ---------------------------------------------------------------------------

#: The paper's example prime (Section II-A); p ≡ 2 mod 3, p ≡ 1 mod 4.
OPF_U = 65356
OPF_K = 144
OPF_P = OPF_U * (1 << OPF_K) + 1

#: The GLV family needs p ≡ 1 mod 3; the paper's example prime does not
#: satisfy that, so the GLV curve gets its own 16-bit-u OPF prime.
GLV_U = 65361
GLV_K = 144
GLV_P = GLV_U * (1 << GLV_K) + 1

# ---------------------------------------------------------------------------
# Generated curve constants (see module docstring)
# ---------------------------------------------------------------------------

#: Weierstraß curve y^2 = x^3 - 3x + b over OPF_P.
WEIERSTRASS_B = 1
WEIERSTRASS_GX = 0x2877256B46FAE7CD55DEA538368CC5B9735CDF57
WEIERSTRASS_GY = 0x9DAE63B8B43BD0AF1A07D78035B8DE168067B335

#: Montgomery curve B*y^2 = x^3 + A*x^2 + x over OPF_P with (A + 2)/4 = 3
#: and B = -(A + 2) so the Edwards partner below has a = -1.
MONTGOMERY_A = 10
MONTGOMERY_B = (-(MONTGOMERY_A + 2)) % OPF_P
MONTGOMERY_GX = 0x9D9B532ABA4E6C3686FF0DE26A7698065AAB0A37
MONTGOMERY_GY = 0x9A621A29E7ACCAA07B6CC35DE9016437FC161B2E

#: Twisted Edwards curve -x^2 + y^2 = 1 + d*x^2*y^2, birationally equivalent
#: to the Montgomery curve above (d is a non-square => complete addition).
EDWARDS_A = OPF_P - 1
EDWARDS_D = 0x5519555555555555555555555555555555555555
EDWARDS_GX = 0xCA2BAD213558F3326D2BD4687B8F26EA0AC60D96
EDWARDS_GY = 0x7FCA84672D61C69A79BE3AA35D32F411443BBD97

#: GLV curve y^2 = x^3 + 10 over GLV_P; prime order determined exactly by
#: Cornacchia point counting (j = 0 trace candidates).
GLV_B = 10
GLV_ORDER = 0xFF5100000000000000006A92D0A9AE5E1FD462B3
GLV_BETA = 0x0EB9978168CC3A7992AD00A29DF1DCBA6A69FEE6
GLV_LAMBDA = 0xAC4416C3D631BA4983EB0ED28ABA4AA0A26B619A
GLV_GX = 0xCABE7B77153540B694D074334BAC57B96DCA890F
GLV_GY = 0x679667D0A59E7A841D6CEC1F0C15051FCB1E6FCB

# ---------------------------------------------------------------------------
# secp160r1 (SECG SEC 2 standard constants)
# ---------------------------------------------------------------------------

SECP160R1_P = (1 << 160) - (1 << 31) - 1
SECP160R1_A = SECP160R1_P - 3
SECP160R1_B = 0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45
SECP160R1_GX = 0x4A96B5688EF573284664698968C38BB913CBFC82
SECP160R1_GY = 0x23A628553168947D59DCC912042351377AC5FB32
SECP160R1_N = 0x0100000000000000000001F4C8F927AED3CA752257
SECP160R1_H = 1

# ---------------------------------------------------------------------------
# Curve-suite bundles
# ---------------------------------------------------------------------------


@dataclass
class CurveSuite:
    """A named curve instance bound to a freshly constructed field.

    Each call to a factory below builds a *new* field object so that the
    embedded operation counters start from zero — benchmark runs never
    contaminate each other.
    """

    key: str
    curve: object
    base: AffinePoint
    field: PrimeField
    #: Subgroup order of the base point when exactly known, else None.
    order: Optional[int]
    #: Bit length used for fixed-length (constant-round) algorithms.
    scalar_bits: int = 160

    @property
    def cofactor(self) -> Optional[int]:
        """h = #E / n when the curve pins #E and the suite knows n, else
        None; h = 1 makes the subgroup check of received points redundant
        (:func:`~repro.curves.validate.validate_public_point`)."""
        group_order = getattr(self.curve, "group_order", None)
        if group_order is None or self.order is None:
            return None
        return group_order // self.order


def _affine(field: PrimeField, x: int, y: int) -> AffinePoint:
    return AffinePoint(field.from_int(x), field.from_int(y))


def _fresh(suite: CurveSuite) -> CurveSuite:
    """Zero the counters so construction costs don't pollute measurements."""
    suite.field.counter.reset()
    return suite


def make_secp160r1(functional: bool = False) -> CurveSuite:
    """The standardized reference curve (Table II row 'secp160r1')."""
    field: PrimeField
    if functional:
        field = GenericPrimeField(SECP160R1_P, name="secp160r1-functional")
    else:
        field = Secp160r1Field()
    curve = WeierstrassCurve(field, SECP160R1_A, SECP160R1_B, name="secp160r1")
    curve.group_order = SECP160R1_H * SECP160R1_N
    base = _affine(field, SECP160R1_GX, SECP160R1_GY)
    return _fresh(CurveSuite("secp160r1", curve, base, field, SECP160R1_N))


def _opf_field(functional: bool, u: int = OPF_U, k: int = OPF_K,
               tag: str = "opf160") -> PrimeField:
    if functional:
        return GenericPrimeField(u * (1 << k) + 1, name=f"{tag}-functional")
    return OptimalPrimeField(u, k, name=tag)


def make_weierstrass(functional: bool = False) -> CurveSuite:
    """OPF Weierstraß curve (Table II row 'Weierstraß')."""
    field = _opf_field(functional)
    curve = WeierstrassCurve(field, -3, WEIERSTRASS_B, name="opf-weierstrass")
    base = _affine(field, WEIERSTRASS_GX, WEIERSTRASS_GY)
    return _fresh(CurveSuite("weierstrass", curve, base, field, None))


def make_montgomery(functional: bool = False) -> CurveSuite:
    """OPF Montgomery curve (Table II row 'Montgomery')."""
    field = _opf_field(functional)
    curve = MontgomeryCurve(field, MONTGOMERY_A, MONTGOMERY_B,
                            name="opf-montgomery")
    base = _affine(field, MONTGOMERY_GX, MONTGOMERY_GY)
    return _fresh(CurveSuite("montgomery", curve, base, field, None))


def make_edwards(functional: bool = False) -> CurveSuite:
    """OPF twisted Edwards curve (Table II row 'Edwards')."""
    field = _opf_field(functional)
    curve = TwistedEdwardsCurve(field, EDWARDS_A, EDWARDS_D,
                                name="opf-edwards")
    base = _affine(field, EDWARDS_GX, EDWARDS_GY)
    return _fresh(CurveSuite("edwards", curve, base, field, None))


def make_glv(functional: bool = False) -> CurveSuite:
    """OPF GLV curve (Table II row 'GLV'), exact prime order."""
    field = _opf_field(functional, GLV_U, GLV_K, tag="opf160-glv")
    curve = GLVCurve(field, GLV_B, GLV_BETA, GLV_LAMBDA, GLV_ORDER,
                     name="opf-glv")
    curve.group_order = GLV_ORDER
    base = _affine(field, GLV_GX, GLV_GY)
    return _fresh(CurveSuite("glv", curve, base, field, GLV_ORDER))


#: Factories keyed the way the tables name their rows.
SUITE_FACTORIES: dict = {
    "secp160r1": make_secp160r1,
    "weierstrass": make_weierstrass,
    "edwards": make_edwards,
    "montgomery": make_montgomery,
    "glv": make_glv,
}


def make_suite(key: str, functional: bool = False) -> CurveSuite:
    """Construct a fresh curve suite by table-row name."""
    try:
        factory = SUITE_FACTORIES[key]
    except KeyError:
        raise KeyError(
            f"unknown curve suite {key!r}; "
            f"choose from {sorted(SUITE_FACTORIES)}"
        ) from None
    return factory(functional=functional)
