import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpsop.combinatorics import (
    PowerTable,
    power_coefficient,
    stride_offsets,
    weighted_compositions,
)
from fpsop.series import PolynomialSymbol, TruncatedSeries, _exact, _power_rows, cauchy_product
from fpsop.weights import ValidationError

from oracles import (
    compositions_exhaustive,
    power_coeff_exhaustive,
    power_coeff_reference,
    rand_symbol_coeffs,
)


class TestWeightedCompositions:
    def test_linear_symbol(self):
        got = set(weighted_compositions(2, 3, (0, 1)))
        assert got == {(1, 2)}

    def test_weight_beyond_reach_is_empty(self):
        assert list(weighted_compositions(7, 3, (0, 1, 2))) == []

    def test_quadratic_symbol(self):
        got = set(weighted_compositions(2, 2, (0, 1, 2)))
        assert got == {(1, 0, 1), (0, 2, 0)}

    def test_sparse_support(self):
        got = set(weighted_compositions(6, 2, (1, 5)))
        assert got == {(1, 1)}

    def test_bad_degrees_rejected(self):
        with pytest.raises(ValidationError):
            list(weighted_compositions(2, 2, (1, 1)))
        with pytest.raises(ValidationError):
            list(weighted_compositions(2, 2, (2, 1)))

    @given(st.integers(0, 10), st.integers(0, 5),
           st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
    @settings(max_examples=60)
    def test_matches_exhaustive_search(self, n, parts, degrees):
        degrees = tuple(sorted(degrees))
        got = set(weighted_compositions(n, parts, degrees))
        assert got == compositions_exhaustive(n, parts, degrees)

    @given(st.integers(0, 12), st.integers(0, 6))
    @settings(max_examples=40)
    def test_invariants_hold(self, n, parts):
        degrees = (0, 1, 3)
        for combo in weighted_compositions(n, parts, degrees):
            assert sum(combo) == parts
            assert sum(d * li for d, li in zip(degrees, combo)) == n


class TestPowerCoefficient:
    def test_affine_cube(self):
        phi = PolynomialSymbol.from_coeffs([1, 1])
        assert power_coefficient(phi, 2, 3) == 3

    def test_monomial_indicator(self):
        phi = PolynomialSymbol.monomial(3)
        assert power_coefficient(phi, 6, 2) == 1
        assert power_coefficient(phi, 5, 2) == 0

    def test_shifted_square(self):
        phi = PolynomialSymbol.from_coeffs([0, 1, 1])
        assert power_coefficient(phi, 3, 2) == 2

    def test_zeroth_power(self):
        phi = PolynomialSymbol.from_coeffs([2, 5])
        assert power_coefficient(phi, 0, 0) == 1
        assert power_coefficient(phi, 1, 0) == 0

    @given(st.integers(0, 10), st.integers(0, 5), st.integers(1, 999))
    @settings(max_examples=60)
    def test_matches_exhaustive(self, n, big_l, seed):
        alphas = rand_symbol_coeffs(random.Random(seed), 3, num_max=4, den_max=4)
        phi = PolynomialSymbol.from_coeffs(alphas)
        assert power_coefficient(phi, n, big_l) == \
            power_coeff_exhaustive(tuple(phi.alphas), n, big_l)


class TestPowerTable:
    def test_entries_match_repeated_product(self):
        rng = random.Random(3)
        for _ in range(10):
            alphas = rand_symbol_coeffs(rng, 4)
            phi = PolynomialSymbol.from_coeffs(alphas)
            table = PowerTable(phi, 10, 5)
            for big_l in range(6):
                expected = power_coeff_reference(alphas, 0, big_l)
                row = [power_coeff_reference(alphas, n, big_l) for n in range(11)]
                assert list(table.row(big_l)) == row

    def test_row_identity_as_series(self):
        phi = PolynomialSymbol.from_coeffs([Fraction(1, 2), 0, 1])
        table = PowerTable(phi, 8, 4)
        acc = TruncatedSeries.unity(8)
        base = TruncatedSeries.from_coeffs(phi.alphas, degree_bound=8)
        for big_l in range(5):
            assert list(table.row(big_l)) == list(acc.coeffs)
            acc = cauchy_product(acc, base, 8)

    def test_vanishes_beyond_degree_times_power(self):
        phi = PolynomialSymbol.from_coeffs([1, 2, 1])
        table = PowerTable(phi, 12, 4)
        for big_l in range(5):
            for n in range(2 * big_l + 1, 13):
                assert table.theta(n, big_l) == 0

    def test_row_nonzeros_agree_with_rows(self):
        phi = PolynomialSymbol.from_coeffs([0, 3, 0, 1])
        table = PowerTable(phi, 15, 5)
        for big_l in range(6):
            dense = {n: v for n, v in enumerate(table.row(big_l)) if v != 0}
            assert dict(table.row_nonzeros(big_l)) == dense

    def test_monomial_fast_path(self):
        table = PowerTable(PolynomialSymbol.monomial(2), 10, 5)
        for big_l in range(6):
            assert list(table.row_nonzeros(big_l)) == [(2 * big_l, 1)]

    def test_power_range_monomial(self):
        table = PowerTable(PolynomialSymbol.monomial(2), 10, 5)
        assert list(table.power_range(4)) == [2]
        assert list(table.power_range(5)) == []

    def test_power_range_constant_term(self):
        phi = PolynomialSymbol.from_coeffs([1, 1])
        table = PowerTable(phi, 6, 9)
        assert list(table.power_range(2)) == list(range(2, 10))

    @given(st.lists(st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]), min_size=1, max_size=5))
    @example([1])  # z**0
    @example([0, 0, 0, 1])
    @example([0.0, 1.0])
    @example([0])
    def test_route_is_direct_exactly_for_unit_monomials(self, alphas):
        phi = PolynomialSymbol.from_coeffs(alphas)
        unit_monomial = [a for a in phi.alphas if a != 0] == [1]
        assert PowerTable(phi, 6, 4).method == ("direct" if unit_monomial else "powers")

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_direct_rows_match_power_rows(self, m):
        phi = PolynomialSymbol.monomial(m)
        table = PowerTable(phi, 10, 5)
        rows = [tuple(_exact(x, den) for x in nums) for nums, den in _power_rows(phi, 10, 5)]
        assert [table.row(big_l) for big_l in range(6)] == rows
        for n in range(11):
            assert list(table.power_range(n)) == [L for L in range(6) if rows[L][n] != 0]

    @given(st.lists(st.one_of(
               st.integers(-9, 9),
               st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                            max_denominator=10 ** 12)), min_size=2, max_size=4),
           st.booleans(), st.integers(0, 8), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_enumeration(self, alphas, vanishing, degree_bound, max_power):
        # Mixed, large and unit denominators, and phi(0) zero or not.
        if vanishing:
            alphas[0] = 0
        phi = PolynomialSymbol.from_coeffs(alphas)
        table = PowerTable(phi, degree_bound, max_power)
        for big_l in range(max_power + 1):
            assert list(table.row(big_l)) == [
                power_coefficient(phi, n, big_l) for n in range(degree_bound + 1)]

    @given(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=4),
           st.integers(0, 10), st.integers(0, 6))
    @settings(max_examples=40)
    def test_float_rows_keep_the_bits_of_repeated_products(self, alphas, degree_bound,
                                                           max_power):
        phi = PolynomialSymbol.from_coeffs(alphas + [0.5])
        table = PowerTable(phi, degree_bound, max_power)
        for big_l in range(max_power + 1):
            expected = [float(power_coeff_reference(list(phi.alphas), n, big_l))
                        for n in range(degree_bound + 1)]
            assert [x.hex() for x in table.row(big_l)] == [x.hex() for x in expected]

    def test_float_row_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            PowerTable(PolynomialSymbol.from_coeffs([0.5, 1e200]), 4, 4)

    def test_bounds_checked(self):
        table = PowerTable(PolynomialSymbol.monomial(1), 4, 4)
        with pytest.raises(ValidationError):
            table.theta(5, 0)
        with pytest.raises(ValidationError):
            table.theta(0, 5)


class TestStrideOffsets:
    def test_unit_stride_is_full_range(self):
        assert list(stride_offsets(4, 1)) == [0, 1, 2, 3, 4]

    def test_parity_classes(self):
        assert list(stride_offsets(5, 2)) == [1, 3, 5]

    def test_large_stride(self):
        assert list(stride_offsets(1, 3)) == [1]

    def test_zero_stride_rejected(self):
        with pytest.raises(ValidationError):
            stride_offsets(4, 0)

    @given(st.integers(0, 200), st.integers(1, 12))
    def test_membership_characterization(self, n, stride):
        got = list(stride_offsets(n, stride))
        assert got == [k for k in range(n + 1) if (n - k) % stride == 0]
