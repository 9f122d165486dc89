"""Optimal Prime Field behaviour: axioms, incomplete reduction, counting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.field import OptimalPrimeField, is_opf_prime_shape
from repro.mpa import MontgomeryContext

P = 65356 * (1 << 144) + 1

residues = st.integers(min_value=0, max_value=P - 1)


@pytest.fixture(scope="module")
def field():
    return OptimalPrimeField(65356, 144, name="opf160")


class TestConstruction:
    def test_prime_shape_check(self):
        assert is_opf_prime_shape(P)
        assert not is_opf_prime_shape((1 << 160) - (1 << 31) - 1)

    def test_rejects_non_opf_shape(self):
        # k = 8 squeezes u and the +1 into one 32-bit word: not low-weight.
        with pytest.raises(ValueError):
            OptimalPrimeField(65356, 8)

    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            OptimalPrimeField(0, 144)

    def test_metadata(self, field):
        assert field.bits == 160
        assert field.num_words == 5
        assert field.cost_profile == "opf"
        assert field.radix_bits == 160


class TestAxioms:
    @given(residues, residues, residues)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, field_value_a, field_value_b, field_value_c):
        field = OptimalPrimeField(65356, 144)
        a = field.from_int(field_value_a)
        b = field.from_int(field_value_b)
        c = field.from_int(field_value_c)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        assert a + field.zero == a
        assert a * field.one == a

    @given(residues)
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, value):
        field = OptimalPrimeField(65356, 144)
        a = field.from_int(value)
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.invert()
        else:
            assert (a.invert() * a).is_one()

    @given(residues)
    @settings(max_examples=60, deadline=None)
    def test_square_matches_mul(self, value):
        field = OptimalPrimeField(65356, 144)
        a = field.from_int(value)
        assert a.square() == a * a

    @given(residues, st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=60, deadline=None)
    def test_mul_small(self, value, constant):
        field = OptimalPrimeField(65356, 144)
        a = field.from_int(value)
        assert a.mul_small(constant).to_int() == value * constant % P

    def test_mul_small_range(self, field):
        with pytest.raises(ValueError):
            field.from_int(1).mul_small(1 << 16)


class TestIncompleteReduction:
    def test_internal_values_stay_below_radix(self, field):
        a = field.from_int(P - 1)
        b = field.from_int(P - 2)
        c = a + b
        assert c.internal < (1 << 160)
        assert c.to_int() == (2 * P - 3) % P

    def test_incompletely_reduced_equality(self, field):
        """Two internal representations of the same residue compare equal."""
        a = field.from_int(5)
        b = field.from_int(P - 1) + field.from_int(6)  # wraps around
        assert a == b
        assert hash(a) == hash(b)


class TestCounting:
    def test_constants_are_free(self):
        field = OptimalPrimeField(65356, 144)
        _ = field.zero
        _ = field.one
        assert field.counter.mul == 0

    def test_from_int_costs_one_mul(self):
        field = OptimalPrimeField(65356, 144)
        field.from_int(12345)
        assert field.counter.mul == 1

    def test_field_op_counts(self):
        field = OptimalPrimeField(65356, 144)
        a = field.from_int(3)
        b = field.from_int(5)
        field.counter.reset()
        _ = a + b
        _ = a - b
        _ = a * b
        _ = a.square()
        _ = -a
        snap = field.counter.snapshot()
        assert snap == {"add": 1, "sub": 1, "neg": 1, "mul": 1, "sqr": 1,
                        "mul_small": 0, "inv": 0}

    def test_word_mul_count_per_field_mul(self):
        field = OptimalPrimeField(65356, 144)
        a = field.from_int(3)
        b = field.from_int(5)
        field.counter.reset()
        _ = a * b
        assert field.counter.words.mul == 30  # s^2 + s

    def test_inversion_records_iteration_count(self):
        field = OptimalPrimeField(65356, 144)
        field.from_int(777).invert()
        assert len(field.inversion_iteration_counts) == 1
        k = field.inversion_iteration_counts[0]
        assert 160 <= k <= 320  # Kaliski phase-1 bound


class TestToyOpfWordSizes:
    def test_8bit_toy_field_exhaustive_add(self, ):
        field = OptimalPrimeField(13, 8, word_bits=8)
        p = field.p
        for a in range(0, p, 53):
            for b in range(0, p, 59):
                assert (field.from_int(a) + field.from_int(b)).to_int() \
                    == (a + b) % p

    def test_16bit_words(self):
        field = OptimalPrimeField(13, 16, word_bits=16)
        assert field.p == 13 * (1 << 16) + 1
        a = field.from_int(100000)
        b = field.from_int(77777)
        assert (a * b).to_int() == 100000 * 77777 % field.p
