"""The fields' big-int arithmetic against the word-level reference.

The paper fields compute on Python integers but must return exactly what
the :mod:`repro.mpa` routines return — the same *internal* value, including
incompletely reduced ones — and charge exactly the word-op tally those
routines count.  Each op is driven through the public field API on internal
values drawn from ``[0, R)`` (with ``[p, R)`` and the edges 0, p-1, p, R-p
and R-1 drawn often) and compared with the reference computed on word
arrays.  An op the reference rejects (a toy field with ``p < R/2`` can
overflow two conditional subtractions) must be rejected by the field too.
"""

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from repro.curves.params import GLV_K, GLV_U, OPF_K, OPF_U
from repro.field import (
    FieldOpCounter,
    FpElement,
    OptimalPrimeField,
    Secp160r1Field,
    binary_euclid_inverse,
    kaliski_almost_inverse,
)
from repro.field.opf import INVERSION_LOG_SIZE
from repro.mpa import (
    WordOpCounter,
    fips_montgomery_opf,
    from_words,
    modadd_incomplete,
    modsub_incomplete,
    mul_product_scanning,
    to_words,
)

FIELDS = {
    "secp160r1": Secp160r1Field,
    "opf160": lambda: OptimalPrimeField(OPF_U, OPF_K, name="opf160"),
    "glv": lambda: OptimalPrimeField(GLV_U, GLV_K, name="glv"),
    "toy-w8": lambda: OptimalPrimeField(13, 8, word_bits=8, name="toy-w8"),
}

EXAMPLES = settings(max_examples=120, deadline=None)


def _radix(field):
    return 1 << (field.num_words * field.word_bits)


def _internals(field):
    """Internal values in ``[0, R)``, weighted towards ``[p, R)`` and the
    edges of both ranges."""
    p, r = field.p, _radix(field)
    edges = [0, p - 1, p, r - p, r - 1]
    return st.one_of(st.sampled_from(edges), st.integers(p, r - 1),
                     st.integers(0, r - 1))


# -- the word-level reference -------------------------------------------------


class Reference:
    """One field's ops recomputed by the :mod:`repro.mpa` routines."""

    def __init__(self, field):
        self.field = field
        self.opf = isinstance(field, OptimalPrimeField)

    def _words(self, value):
        return to_words(value, self.field.num_words, self.field.word_bits)

    def _int(self, words):
        return from_words(words, self.field.word_bits)

    def add(self, x, y, words):
        f = self.field
        if not self.opf:
            return (x + y) % f.p
        return self._int(modadd_incomplete(
            self._words(x), self._words(y), f.mont.p_words, f.word_bits,
            words))

    def sub(self, x, y, words):
        f = self.field
        if not self.opf:
            return (x - y) % f.p
        return self._int(modsub_incomplete(
            self._words(x), self._words(y), f.mont.p_words, f.word_bits,
            words))

    def neg(self, x, words):
        return self.sub(0, x, words)

    def mul(self, x, y, words):
        f = self.field
        if self.opf:
            return self._int(fips_montgomery_opf(
                self._words(x), self._words(y), f.mont, words))
        return f.reduce_product(self._int(mul_product_scanning(
            self._words(x), self._words(y), f.word_bits, words)))

    def sqr(self, x, words):
        return self.mul(x, x, words)

    def int_to_internal(self, value, words):
        f = self.field
        value %= f.p
        if not self.opf:
            return value
        if value in (0, 1):
            return value * f.mont.r % f.p
        return self.mul(value, f.mont.r2, words)

    def inv(self, x, words):
        """Kaliski phase 1, then phase 2 as the bit-serial doubling loop."""
        f = self.field
        if not self.opf:
            return binary_euclid_inverse(x, f.p)
        almost, k = kaliski_almost_inverse(x % f.p, f.p)
        for _ in range(2 * f.radix_bits - k):
            almost *= 2
            if almost >= f.p:
                almost -= f.p
        return almost


def _run(call):
    """*call*'s result, or ``AssertionError`` if it raised one."""
    try:
        return call()
    except AssertionError:
        return AssertionError


def _check(field, op, *args):
    """The field's op and the reference agree on value and word tallies;
    the field also counts exactly one op of its kind."""
    elements = [FpElement(field, a) for a in args]
    before = field.counter.copy()
    got = _run(lambda: getattr(field, op)(*elements).internal)
    delta = field.counter.delta(before)
    words = WordOpCounter()
    want = _run(lambda: getattr(Reference(field), op)(*args, words))
    assert got == want, (op, [hex(a) for a in args])
    assert delta.words == words
    assert delta.snapshot() == {**FieldOpCounter().snapshot(), op: 1}


@pytest.fixture(params=sorted(FIELDS), scope="module")
def field(request):
    return FIELDS[request.param]()


def _check_ops(field, x, y):
    """add, sub, neg, mul and sqr on internals *x*, *y* in ``[0, R)``."""
    if not isinstance(field, OptimalPrimeField):
        # Plain-residue fields keep their internals below p for add/sub.
        _check(field, "add", x % field.p, y % field.p)
        _check(field, "sub", x % field.p, y % field.p)
        _check(field, "neg", x % field.p)
    else:
        _check(field, "add", x, y)
        _check(field, "sub", x, y)
        _check(field, "neg", x)
    _check(field, "mul", x, y)
    _check(field, "sqr", x)


@seed(2012)
@EXAMPLES
@given(data=st.data())
def test_add_sub_mul_sqr_match_reference(field, data):
    _check_ops(field, data.draw(_internals(field)),
               data.draw(_internals(field)))


def _redc_reaches_radix(field):
    """``x, y < R`` whose Montgomery product is exactly ``R`` before the
    final conditional subtraction: ``xy + mp = R^2`` with ``x = R - 1``."""
    r, p = _radix(field), field.p
    m = pow(p, -1, r - 1)
    y, rem = divmod(r * r - m * p, r - 1)
    assert rem == 0 and 0 <= y < r
    return r - 1, y


def test_edges_match_reference(field):
    p, r = field.p, _radix(field)
    edges = [0, p - 1, p, r - p, r - 1]
    for x in edges:
        for y in edges:
            _check_ops(field, x, y)
    if isinstance(field, OptimalPrimeField):
        x, y = _redc_reaches_radix(field)
        assert field.mul(FpElement(field, x), FpElement(field, y)) \
            .internal == r - p
        _check(field, "mul", x, y)


@seed(2012)
@EXAMPLES
@given(data=st.data())
def test_int_to_internal_matches_reference(field, data):
    value = data.draw(st.one_of(
        st.sampled_from([0, 1, 2, field.p - 1, field.p, field.p + 1]),
        st.integers(0, 2 * _radix(field))))
    before = field.counter.copy()
    got = field.int_to_internal(value)
    delta = field.counter.delta(before)
    words = WordOpCounter()
    assert got == Reference(field).int_to_internal(value, words)
    assert delta.words == words
    assert delta.mul == (0 if value % field.p in (0, 1)
                         or not isinstance(field, OptimalPrimeField) else 1)


@seed(2012)
@EXAMPLES
@given(data=st.data())
def test_inv_matches_reference(field, data):
    x = data.draw(_internals(field))
    if not isinstance(field, OptimalPrimeField):
        x %= field.p
    assume(x % field.p)
    _check(field, "inv", x)
    if isinstance(field, OptimalPrimeField):
        k = kaliski_almost_inverse(x % field.p, field.p)[1]
        assert field.inversion_iteration_counts[-1] == k


def test_inversion_log_is_bounded():
    field = FIELDS["toy-w8"]()
    a = field.from_int(1234)
    for _ in range(10_000):
        a.invert()
    assert len(field.inversion_iteration_counts) == INVERSION_LOG_SIZE
    assert field.inversion_iteration_counts.maxlen == INVERSION_LOG_SIZE
