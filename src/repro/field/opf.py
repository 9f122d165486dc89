"""Optimal Prime Fields (OPFs): p = u * 2^k + 1 with a short u.

OPF elements are stored in the Montgomery domain (radix ``R = 2^(s*w)``) and
*incompletely reduced*: the internal value may be anywhere in ``[0, R)`` as
long as it is congruent to the represented element.  Addition/subtraction
follow the paper's branch-less double conditional subtraction (Section
III-A); multiplication and squaring are Montgomery multiplications whose
word-level form is the OPF-optimised FIPS routine (``s^2 + s`` word
multiplications).

The arithmetic runs on Python integers and returns exactly the internal
value the word-level routines in :mod:`repro.mpa` produce: one whole-radix
REDC yields the same quotient as digit-serial FIPS, and the conditional
subtractions/additions of ``p`` are decided against ``R`` as the carry
chain decides them.  Those routines stay the reference (the equivalence
tests compare against them) and the source of the word-op tallies: each is
branch-free, so its counts are measured once per field and the field's
counter multiplies them by its op counts when read.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional

from ..mpa.addsub import modadd_incomplete, modsub_incomplete
from ..mpa.counters import word_tally
from ..mpa.montgomery import MontgomeryContext, fips_montgomery_opf
from ..mpa.words import DEFAULT_WORD_BITS, to_words
from .inversion import kaliski_almost_inverse
from .prime_field import PrimeField

#: Inversions whose phase-1 iteration counts an OPF field keeps (the
#: most recent ones); bounded so a long-running process does not grow.
INVERSION_LOG_SIZE = 1024


def is_opf_prime_shape(p: int, word_bits: int = DEFAULT_WORD_BITS) -> bool:
    """True when ``p`` has the low-weight OPF word pattern ``u * 2^k + 1``.

    Checks the *word-array* property the arithmetic relies on: LSW == 1, MSW
    non-zero, all interior words zero.
    """
    s = -(-p.bit_length() // word_bits)
    words = to_words(p, s, word_bits)
    return (
        words[0] == 1
        and words[-1] != 0
        and all(w == 0 for w in words[1:-1])
    )


class OptimalPrimeField(PrimeField):
    """A 'low-weight' prime field with Montgomery-domain OPF arithmetic.

    Args:
        u: the short multiplier (at most 16 bits in the paper).
        k: the power-of-two exponent; ``p = u * 2^k + 1``.
        word_bits: word size *w* (32 in the paper; 8 makes handy toy fields).
        name: optional human-readable identifier.

    Raises ``ValueError`` if the resulting modulus does not have the
    low-weight word shape (e.g. if ``k`` is not a multiple of *word_bits*
    plus the final partial word arrangement required).
    """

    cost_profile = "opf"

    def __init__(self, u: int, k: int, word_bits: int = DEFAULT_WORD_BITS,
                 name: Optional[str] = None):
        if u <= 0:
            raise ValueError(f"u must be positive, got {u}")
        p = u * (1 << k) + 1
        super().__init__(p, name or f"OPF({u}*2^{k}+1)")
        self.u = u
        self.k = k
        self.word_bits = word_bits
        if not is_opf_prime_shape(p, word_bits):
            raise ValueError(
                f"p = {u}*2^{k}+1 does not have the OPF word shape "
                f"for w = {word_bits}"
            )
        self.mont = MontgomeryContext.create(p, word_bits)
        self.num_words = self.mont.num_words
        self.radix_bits = self.num_words * word_bits
        r = self.mont.r
        self._r = r
        self._r_mask = r - 1
        self._r_inv = pow(r, -1, p)
        self._one = r % p
        #: ``-p^-1 mod R``: the whole-radix REDC quotient constant.
        self._n_prime = -pow(p, -1, r) % r
        zeros, p_words = [0] * self.num_words, self.mont.p_words
        self.counter.derive_words(
            add=word_tally(modadd_incomplete, zeros, zeros, p_words,
                           word_bits),
            sub=word_tally(modsub_incomplete, zeros, zeros, p_words,
                           word_bits),
            mul=word_tally(fips_montgomery_opf, zeros, zeros, self.mont))
        #: Phase-1 iteration counts of the most recent inversions — exposed
        #: for the leakage analysis of the projective-to-affine conversion.
        self.inversion_iteration_counts: Deque[int] = deque(
            maxlen=INVERSION_LOG_SIZE)

    # -- representation -----------------------------------------------------

    def int_to_internal(self, value: int) -> int:
        """Enter the Montgomery domain (one counted Montgomery multiplication
        by ``R^2 mod p``).

        The constants 0 and 1 are free: their Montgomery forms (0 and
        ``R mod p``) would live in ROM on the real device.
        """
        value %= self.p
        if value == 0:
            return 0
        if value == 1:
            return self._one
        self.counter.mul += 1
        return self._mul(value, self.mont.r2)

    def internal_to_int(self, internal: int) -> int:
        """Leave the Montgomery domain and fully reduce (uncounted read-out)."""
        return internal * self._r_inv % self.p

    # -- arithmetic -----------------------------------------------------------
    #
    # The public op has already counted itself — and so its reference
    # routine's word-op tally — when these run, as the routine has counted
    # everything by the time it checks its invariant; the AssertionErrors
    # mirror those checks, which only a toy field with p < R/2 can trip.

    def _add(self, x: int, y: int) -> int:
        """:func:`~repro.mpa.addsub.modadd_incomplete`: subtract ``p`` while
        the sum carries out of ``R``, at most twice."""
        t = x + y
        if t >= self._r:
            t -= self.p
            if t >= self._r:
                t -= self.p
                if t >= self._r:
                    raise AssertionError(
                        "incomplete reduction invariant violated: residual "
                        "carry after two conditional subtractions")
        return t

    def _sub(self, x: int, y: int) -> int:
        """:func:`~repro.mpa.addsub.modsub_incomplete`: add ``p`` back while
        the difference borrows, at most twice."""
        t = x - y
        if t < 0:
            t += self.p
            if t < 0:
                t += self.p
                if t < 0:
                    raise AssertionError(
                        "incomplete reduction invariant violated: residual "
                        "borrow after two conditional additions")
        return t

    def _mul(self, x: int, y: int) -> int:
        """:func:`~repro.mpa.montgomery.fips_montgomery_opf` as one
        whole-radix REDC: ``(xy + m p) / R`` with ``m = -xy p^-1 mod R``,
        then one subtraction of ``p`` if that reaches ``R``."""
        t = x * y
        m = (t & self._r_mask) * self._n_prime & self._r_mask
        t = (t + m * self.p) >> self.radix_bits
        return t - self.p if t >= self._r else t

    def _mul_small(self, x: int, constant: int) -> int:
        # Multiplying the Montgomery form by a *plain* short constant keeps
        # the result in the Montgomery domain: (a*R) * c = (a*c) * R.
        # Functionally we reduce with big-int mod; the cycle model prices
        # this operation at the paper's 0.25-0.3 M.
        return (x * constant) % self.p

    def _inv(self, x: int) -> int:
        # x = a * R (mod p, possibly incompletely reduced).  The inverse in
        # internal form is a^-1 * R = x^-1 * R^2 mod p.  Phase 1 runs bit by
        # bit because its iteration count k is the recorded leakage quantity.
        plain = x % self.p
        almost, k = kaliski_almost_inverse(plain, self.p)
        self.inversion_iteration_counts.append(k)
        # almost = plain^-1 * 2^k; phase 2 scales by 2^(2n - k) to reach R^2.
        return almost * pow(2, 2 * self.radix_bits - k, self.p) % self.p

    def random_element(self, rng: Optional[random.Random] = None):
        """Uniformly random element; may be produced incompletely reduced."""
        return super().random_element(rng)
