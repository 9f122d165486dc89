"""Prime-field layer: generic F_p, Optimal Prime Fields, and secp160r1.

The field API (:class:`~repro.field.prime_field.PrimeField` /
:class:`~repro.field.element.FpElement`) is what all curve arithmetic is
written against.  Concrete fields differ in their internal representation and
reduction (all compute on Python integers; the word-level routines of
:mod:`repro.mpa` are the reference they match and the source of their
word-op tallies):

* :class:`~repro.field.prime_field.GenericPrimeField` — plain residues
  (functional baseline, toy fields).
* :class:`~repro.field.opf.OptimalPrimeField` — the paper's OPF library:
  Montgomery domain, incomplete reduction, OPF-optimised FIPS.
* :class:`~repro.field.secp160r1_field.Secp160r1Field` — pseudo-Mersenne
  fold reduction for the standardized reference curve.
"""

from .counters import FieldOpCounter
from .element import FpElement
from .inversion import (
    binary_euclid_inverse,
    fermat_inverse,
    kaliski_almost_inverse,
    kaliski_montgomery_inverse,
    tonelli_shanks_sqrt,
)
from .opf import OptimalPrimeField, is_opf_prime_shape
from .prime_field import GenericPrimeField, PrimeField
from .secp160r1_field import SECP160R1_P, Secp160r1Field

__all__ = [
    "SECP160R1_P",
    "FieldOpCounter",
    "FpElement",
    "GenericPrimeField",
    "OptimalPrimeField",
    "PrimeField",
    "Secp160r1Field",
    "binary_euclid_inverse",
    "fermat_inverse",
    "is_opf_prime_shape",
    "kaliski_almost_inverse",
    "kaliski_montgomery_inverse",
    "tonelli_shanks_sqrt",
]
