"""secp160r1 field: pseudo-Mersenne fold reduction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.field import SECP160R1_P, Secp160r1Field

residues = st.integers(min_value=0, max_value=SECP160R1_P - 1)


@pytest.fixture(scope="module")
def field():
    return Secp160r1Field()


class TestPrimeShape:
    def test_value(self):
        assert SECP160R1_P == (1 << 160) - (1 << 31) - 1

    def test_fold_identity(self):
        # 2^160 ≡ 2^31 + 1 (mod p): the basis of the reduction.
        assert pow(2, 160, SECP160R1_P) == (1 << 31) + 1


class TestReduceProduct:
    @given(st.integers(min_value=0, max_value=(1 << 320) - 1))
    @settings(max_examples=300)
    def test_full_double_length_range(self, t):
        field = Secp160r1Field()
        assert field.reduce_product(t) == t % SECP160R1_P

    def test_rejects_negative(self, field):
        with pytest.raises(ValueError):
            field.reduce_product(-1)

    def test_boundary_values(self, field):
        for t in (0, SECP160R1_P - 1, SECP160R1_P, SECP160R1_P + 1,
                  (SECP160R1_P - 1) ** 2, (1 << 320) - 1):
            assert field.reduce_product(t) == t % SECP160R1_P


class TestArithmetic:
    @given(residues, residues)
    @settings(max_examples=100)
    def test_mul(self, a, b):
        field = Secp160r1Field()
        assert (field.from_int(a) * field.from_int(b)).to_int() \
            == a * b % SECP160R1_P

    @given(residues)
    @settings(max_examples=100)
    def test_inverse(self, a):
        field = Secp160r1Field()
        if a == 0:
            return
        elem = field.from_int(a)
        assert (elem.invert() * elem).is_one()

    def test_mul_small(self, field):
        a = field.from_int(SECP160R1_P - 1)
        assert a.mul_small(1000).to_int() == (SECP160R1_P - 1) * 1000 % SECP160R1_P

    def test_cost_profile(self, field):
        assert field.cost_profile == "secp160r1"

    def test_byte_mul_count_model(self, field):
        # 5 words x 5 words x 16 byte-muls = 400, Gura's hybrid figure.
        assert field.byte_muls_per_field_mul == 400

    def test_word_level_counting(self):
        field = Secp160r1Field()
        a = field.from_int(3)
        b = field.from_int(7)
        field.counter.reset()
        _ = a * b
        assert field.counter.words.mul == 25  # s^2 word muls in the product
