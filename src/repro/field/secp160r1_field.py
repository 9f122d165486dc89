"""The field of the standardized curve secp160r1.

secp160r1 uses the pseudo-Mersenne prime ``p = 2^160 - 2^31 - 1``; the paper
implements its field multiplication with an unrolled variant of Gura et al.'s
*hybrid* method plus a prime-specific reduction (Section V-B).  Reduction for
this prime works by folding: ``2^160 ≡ 2^31 + 1 (mod p)``, so the high half
of a product is multiplied by the small constant ``2^31 + 1`` and added back —
additions rather than the multiplication-based reduction of OPFs, which is
exactly the contrast the paper draws between generalized-Mersenne-style
primes and OPFs.

Products are formed with Python integers.  The word-level product-scanning
routine in :mod:`repro.mpa` stays the reference for the product and the
source of the word-op tally each multiplication or squaring stands for.
"""

from __future__ import annotations

from typing import Optional

from ..mpa.counters import WordOpCounter, word_tally
from ..mpa.mul import byte_muls_per_word_mul, mul_product_scanning
from ..mpa.words import DEFAULT_WORD_BITS
from .prime_field import PrimeField

#: The SECG secp160r1 prime.
SECP160R1_P = (1 << 160) - (1 << 31) - 1


class Secp160r1Field(PrimeField):
    """F_p for p = 2^160 - 2^31 - 1 with fold-based fast reduction.

    Elements are stored as plain residues.  Multiplication is the integer
    product followed by the two-fold pseudo-Mersenne reduction; it is
    priced at the word-op tally of the Comba/hybrid product-scanning
    routine, whose byte-level MUL count :attr:`byte_muls_per_field_mul`
    gives.  Additions and subtractions carry no word tally.
    """

    cost_profile = "secp160r1"

    def __init__(self, word_bits: int = DEFAULT_WORD_BITS,
                 name: Optional[str] = None):
        super().__init__(SECP160R1_P, name or "secp160r1")
        self.word_bits = word_bits
        self.num_words = -(-self.bits // word_bits)
        self.byte_muls_per_field_mul = (
            self.num_words ** 2 * byte_muls_per_word_mul(word_bits)
        )
        zeros = [0] * self.num_words
        self.counter.derive_words(
            add=WordOpCounter(), sub=WordOpCounter(),
            mul=word_tally(mul_product_scanning, zeros, zeros, word_bits))

    # -- representation -----------------------------------------------------

    def int_to_internal(self, value: int) -> int:
        return value % self.p

    def internal_to_int(self, internal: int) -> int:
        return internal % self.p

    # -- reduction ------------------------------------------------------------

    def reduce_product(self, t: int) -> int:
        """Fold a double-length product back below ``p``.

        Uses ``2^160 ≡ 2^31 + 1 (mod p)`` twice, then at most two conditional
        subtractions — the generalized-Mersenne-style 'reduction via
        additions' the paper contrasts with OPF reduction via MAC operations.
        """
        if t < 0:
            raise ValueError("product must be non-negative")
        fold = (1 << 31) + 1
        hi, lo = t >> 160, t & ((1 << 160) - 1)
        t = lo + hi * fold
        hi, lo = t >> 160, t & ((1 << 160) - 1)
        t = lo + hi * fold
        while t >= self.p:
            t -= self.p
        return t

    # -- arithmetic -------------------------------------------------------------

    def _add(self, x: int, y: int) -> int:
        t = x + y
        return t - self.p if t >= self.p else t

    def _sub(self, x: int, y: int) -> int:
        t = x - y
        return t + self.p if t < 0 else t

    def _mul(self, x: int, y: int) -> int:
        return self.reduce_product(x * y)

    def _mul_small(self, x: int, constant: int) -> int:
        return self.reduce_product(x * constant)

    def _inv(self, x: int) -> int:
        return pow(x, -1, self.p)
