"""Word-level multi-precision arithmetic (the paper's 'low-level' layer).

This package models the arithmetic the paper's OPF library implements in AVR
assembly: carry-chain addition/subtraction with incomplete reduction, the
schoolbook/Comba/hybrid multiplication organisations, and Montgomery modular
multiplication in its SOS, CIOS and FIPS forms — including the OPF-optimised
FIPS variant whose word-multiplication count drops from ``2s^2 + s`` to
``s^2 + s`` for low-weight primes.

Every routine tallies word-level operations into an optional
:class:`~repro.mpa.counters.WordOpCounter`, which the cycle model and the
tests use to verify the paper's analytic operation counts.  The field layer
(:mod:`repro.field`) computes on Python integers instead; these routines are
the reference its results are tested against, and the source of the
per-operation word-op tallies its counters derive from op counts.
"""

from .addsub import (
    add_words,
    lowweight_conditional_subtract,
    modadd_incomplete,
    modsub_incomplete,
    sub_scaled_words,
    sub_words,
)
from .counters import NULL_COUNTER, WordOpCounter
from .montgomery import (
    MontgomeryContext,
    cios_montgomery,
    fips_montgomery,
    fips_montgomery_opf,
    inverse_mod_word,
    sos_montgomery,
)
from .mul import (
    byte_muls_per_word_mul,
    mul_hybrid,
    mul_operand_scanning,
    mul_product_scanning,
    mul_small_constant,
    sqr_product_scanning,
)
from .words import (
    DEFAULT_WORD_BITS,
    from_bytes_le,
    from_words,
    hamming_weight_words,
    num_words,
    to_bytes_le,
    to_words,
    word_mask,
)

__all__ = [
    "DEFAULT_WORD_BITS",
    "NULL_COUNTER",
    "MontgomeryContext",
    "WordOpCounter",
    "add_words",
    "byte_muls_per_word_mul",
    "cios_montgomery",
    "fips_montgomery",
    "fips_montgomery_opf",
    "from_bytes_le",
    "from_words",
    "hamming_weight_words",
    "inverse_mod_word",
    "lowweight_conditional_subtract",
    "modadd_incomplete",
    "modsub_incomplete",
    "mul_hybrid",
    "mul_operand_scanning",
    "mul_product_scanning",
    "mul_small_constant",
    "num_words",
    "sos_montgomery",
    "sqr_product_scanning",
    "sub_scaled_words",
    "sub_words",
    "to_bytes_le",
    "to_words",
    "word_mask",
]
