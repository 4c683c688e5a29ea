import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsop.series import (
    ModeMismatchError,
    PolynomialSymbol,
    TruncatedSeries,
    _convolve,
    _float_pnorm,
    cauchy_product,
    compose,
    diamond_product,
    diamond_substitute,
    norm,
)
from fpsop.weights import DeltaSequence, ValidationError, make_beta, make_delta

from oracles import (
    compose_reference,
    conv_reference,
    diamond_reference,
    float_convolve_reference,
    float_pnorm_reference,
    norm_reference,
    rand_coeffs,
    substitute_reference,
)

rationals = st.fractions(min_value=Fraction(-8), max_value=Fraction(8),
                         max_denominator=8)
coeff_lists = st.lists(rationals, min_size=1, max_size=12)
# The exact products scale their operands to integers over the LCM of the
# denominators: draw small, large and mixed denominators, and int-only lists.
exact_scalars = st.one_of(
    rationals,
    st.integers(-10 ** 20, 10 ** 20),
    st.fractions(min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6),
                 max_denominator=10 ** 15),
)
exact_lists = st.one_of(
    st.lists(st.integers(-50, 50), min_size=1, max_size=12),
    st.lists(exact_scalars, min_size=1, max_size=12),
)


@st.composite
def symbol_coeffs(draw):
    """Coefficients of a symbol of degree 1..3, with ``phi(0)`` zero or not."""
    alphas = draw(st.lists(exact_scalars, min_size=2, max_size=4))
    if draw(st.booleans()):
        alphas[0] = 0
    if alphas[-1] == 0:
        alphas[-1] = 1
    return alphas


# Every delta preset, a geometric delta with a rational ratio, and explicit
# lists long enough for the degrees drawn below.
deltas = st.one_of(
    st.sampled_from(["ones", "factorial", "inverse-factorial"]).map(make_delta),
    st.sampled_from(["3/2", "2/7"]).map(lambda r: make_delta("geometric", ratio=r)),
    st.lists(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(100),
                          max_denominator=50), min_size=24, max_size=24)
    .map(lambda values: make_delta([1] + values)),
)


class TestTruncatedSeries:
    def test_from_coeffs_pads(self):
        f = TruncatedSeries.from_coeffs([1, 2], degree_bound=4)
        assert f.coeffs == (1, 2, 0, 0, 0)

    def test_from_coeffs_cuts(self):
        f = TruncatedSeries.from_coeffs([1, 2, 3], degree_bound=1)
        assert f.coeffs == (1, 2)

    def test_mode_inference(self):
        assert TruncatedSeries.from_coeffs([1, 2]).mode == "exact"
        assert TruncatedSeries.from_coeffs([1.0, 2]).mode == "float"

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            TruncatedSeries.from_coeffs([math.inf])

    def test_monomial_degree(self):
        assert TruncatedSeries.monomial(3).monomial_degree() == 3
        assert TruncatedSeries.from_coeffs([0, 2]).monomial_degree() is None
        assert TruncatedSeries.from_coeffs([1, 1]).monomial_degree() is None

    def test_unity(self):
        assert TruncatedSeries.unity(2).coeffs == (1, 0, 0)

    def test_add_pads_to_common_bound(self):
        f = TruncatedSeries.from_coeffs([1])
        g = TruncatedSeries.from_coeffs([0, 1, 1])
        assert (f + g).coeffs == (1, 1, 1)

    def test_mixed_mode_addition_rejected(self):
        f = TruncatedSeries.from_coeffs([1])
        g = TruncatedSeries.from_coeffs([1.0])
        with pytest.raises(ModeMismatchError):
            f + g

    def test_scalar_multiple(self):
        f = Fraction(1, 2) * TruncatedSeries.from_coeffs([2, 4])
        assert f.coeffs == (1, 2)


class TestPolynomialSymbol:
    def test_trailing_zeros_trimmed(self):
        phi = PolynomialSymbol.from_coeffs([0, 1, 0, 0])
        assert phi.alphas == (0, 1)

    def test_degree_and_min_degree(self):
        phi = PolynomialSymbol.from_coeffs([0, 0, 3, 5])
        assert phi.degree == 3 and phi.min_degree() == 2

    def test_monomial_detection(self):
        assert PolynomialSymbol.monomial(2).monomial_degree() == 2
        assert PolynomialSymbol.from_coeffs([0, 1, 1]).monomial_degree() is None


class TestNorm:
    def test_single_monomial_is_weight(self):
        beta = make_beta("dirichlet")
        for n in range(6):
            f = TruncatedSeries.monomial(n)
            assert norm(f, beta, 2) == pytest.approx(float(beta.value(n)) ** 1)

    def test_hardy_two_term(self):
        f = TruncatedSeries.from_coeffs([1, 2])
        assert norm(f, make_beta("hardy"), 2) == pytest.approx(math.sqrt(5))

    def test_dirichlet_z(self):
        f = TruncatedSeries.monomial(1)
        assert norm(f, make_beta("dirichlet"), 2) == pytest.approx(math.sqrt(2))

    def test_p_one(self):
        f = TruncatedSeries.from_coeffs([1, -2, 3])
        assert norm(f, make_beta("hardy"), 1) == pytest.approx(6.0)

    @given(coeff_lists, st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=80)
    def test_matches_reference(self, coeffs, p):
        f = TruncatedSeries.from_coeffs(coeffs)
        beta = make_beta("bergman")
        expected = norm_reference(coeffs, [beta.value(n) for n in range(len(coeffs))], p)
        assert norm(f, beta, p) == pytest.approx(expected, rel=1e-12)


# Coefficients as the norms see them: floats, ints and Fractions, with exact
# values beyond float range; positive finite float weights down to the
# subnormal range, as a power law -150 reads them.
_pnorm_pairs = st.lists(st.tuples(
    st.one_of(st.floats(-1e200, 1e200), st.integers(-10 ** 6, 10 ** 6),
              st.sampled_from([10 ** 400, -10 ** 309]), st.fractions(max_denominator=10 ** 6)),
    st.one_of(st.floats(5e-324, 1e300), st.sampled_from([1.0, 17 ** -150.0, 0.5 ** 500]))),
    max_size=8)


class TestFloatPnorm:
    @given(_pnorm_pairs, st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]))
    @settings(max_examples=200)
    def test_bits_match_the_loop_above_the_subnormal_range(self, pairs, pf):
        """The loop's bits wherever the p-th powers sum to ``2**-960`` or more
        and stay in float range, or a term leaves it; otherwise the loop's
        norm of the terms scaled by ``2**-e``, the largest to ``[1/2, 1)``,
        scaled back by ``2**e``, which is ``inf`` only past float range."""
        got, want = _float_pnorm(pairs, pf), float_pnorm_reference(pairs, pf)
        try:
            xs = [abs(float(c)) * w for c, w in pairs]
        except OverflowError:  # an exact coefficient beyond float range
            xs = [math.inf]
        try:
            total = math.fsum([x ** pf for x in xs])
        except OverflowError:  # a p-th power or their sum beyond float range
            total = math.inf
        if 2.0 ** -960 <= total < math.inf or math.inf in xs:
            assert got.hex() == want.hex()
        else:
            e = math.frexp(max(xs, default=0.0))[1]
            scaled = float_pnorm_reference([(1.0, math.ldexp(x, -e)) for x in xs], pf)
            try:
                scaled = math.ldexp(scaled, e)
            except OverflowError:
                scaled = math.inf
            assert got.hex() == scaled.hex()

    def test_a_power_beyond_float_range_keeps_a_finite_norm(self):
        """``1e160**2`` leaves float range, the norm ``1e160`` does not: it
        read ``inf``.  Two terms of ``1e308`` at p = 1 do sum past it."""
        assert _float_pnorm([(1e160, 1.0), (1, 1.0)], 2.0) == 1e160
        assert norm(TruncatedSeries.from_coeffs([1e160, 1.0]), make_beta("hardy"), 2) == 1e160
        assert _float_pnorm([(1e308, 1.0), (1e308, 1.0)], 1.0) == math.inf
        assert _float_pnorm([(10 ** 400, 1.0)], 2.0) == math.inf

    def test_a_square_below_the_normal_range_keeps_its_bits(self):
        """``w(10)**2`` of the power law -150 is about 3.8e-313, subnormal:
        summed unscaled, the norm of ``z**10`` read 1.0000000000013167 times
        ``w(10)``."""
        w = 11.0 ** -150
        assert _float_pnorm([(1, w)], 2.0) == w
        assert norm(TruncatedSeries.monomial(10), make_beta(-150.0), 2) == w


class TestCauchyProduct:
    def test_binomial_square(self):
        f = TruncatedSeries.from_coeffs([1, 1])
        out = cauchy_product(f, f, 2)
        assert out.coeffs == (1, 2, 1)

    def test_truncation_drops_top(self):
        f = TruncatedSeries.from_coeffs([1, 1])
        out = cauchy_product(f, f, 1)
        assert out.coeffs == (1, 2)

    @given(exact_lists, exact_lists, st.integers(0, 24))
    @settings(max_examples=80)
    def test_matches_double_loop(self, a, b, n_max):
        f = TruncatedSeries.from_coeffs(a)
        g = TruncatedSeries.from_coeffs(b)
        out = cauchy_product(f, g, n_max)
        assert list(out.coeffs) == conv_reference(a, b, n_max)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12), st.integers(0, 24))
    @settings(max_examples=60)
    def test_float_bits_match_double_loop(self, a, b, n_max):
        out = cauchy_product(TruncatedSeries.from_coeffs(a),
                             TruncatedSeries.from_coeffs(b), n_max)
        expected = [float(x) for x in conv_reference(a, b, n_max)]
        assert [x.hex() for x in out.coeffs] == [x.hex() for x in expected]


# Zeros of both signs, mixed signs, and magnitudes whose products underflow
# to a signed zero (near 1e-200) or overflow to an infinity (near 1e200).
_float_entries = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e6, 1e6),
    st.floats(1e-201, 1e-199), st.floats(-1e-199, -1e-201),
    st.floats(1e199, 1e201), st.floats(-1e201, -1e199),
)


class TestFloatConvolve:
    @given(st.lists(_float_entries, min_size=1, max_size=14),
           st.lists(_float_entries, min_size=1, max_size=14), st.integers(0, 30))
    @settings(max_examples=300)
    def test_bits_match_the_per_entry_loop(self, a, b, degree_bound):
        got = _convolve(a, b, degree_bound, 0.0)
        want = float_convolve_reference(a, b, degree_bound)
        assert [x.hex() for x in got] == [x.hex() for x in want]


class TestDiamondProduct:
    def test_flat_delta_equals_cauchy(self):
        rng = random.Random(11)
        ones = make_delta("ones")
        for _ in range(20):
            a, b = rand_coeffs(rng, 6), rand_coeffs(rng, 6)
            f = TruncatedSeries.from_coeffs(a)
            g = TruncatedSeries.from_coeffs(b)
            assert diamond_product(f, g, ones, 12).coeffs == \
                cauchy_product(f, g, 12).coeffs

    def test_factorial_z_times_z(self):
        z = TruncatedSeries.monomial(1)
        out = diamond_product(z, z, make_delta("factorial"), 2)
        assert out.coeffs == (0, 0, 2)

    def test_unity_is_neutral(self):
        f = TruncatedSeries.from_coeffs([3, Fraction(1, 2), 5])
        one = TruncatedSeries.unity(0)
        out = diamond_product(f, one, make_delta("inverse-factorial"), 2)
        assert out.coeffs == f.coeffs

    @given(exact_lists, exact_lists, deltas, st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_matches_double_sum(self, a, b, delta, n_max):
        f = TruncatedSeries.from_coeffs(a)
        g = TruncatedSeries.from_coeffs(b)
        out = diamond_product(f, g, delta, n_max)
        dv = [delta.value(n) for n in range(n_max + 1)]
        assert list(out.coeffs) == diamond_reference(a, b, dv, n_max)

    def test_non_rational_delta_gives_the_float_product(self):
        # Only a custom DeltaSequence yields such a value; the exact operands
        # are then multiplied in float mode.
        delta = DeltaSequence(lambda n: 1.5 ** n)
        a, b = [1, Fraction(1, 3), 2], [Fraction(1, 2), 1]
        f, g = TruncatedSeries.from_coeffs(a), TruncatedSeries.from_coeffs(b)
        out = diamond_product(f, g, delta, 4)
        assert out.mode == "float"
        assert out.coeffs == diamond_product(f.to_float(), g.to_float(), delta, 4).coeffs
        dv = [1.5 ** n for n in range(5)]
        assert list(out.coeffs) == pytest.approx(
            [float(x) for x in diamond_reference(a, b, dv, 4)], rel=1e-15)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=40)
    def test_commutative(self, a, b):
        delta = make_delta("factorial")
        f = TruncatedSeries.from_coeffs(a)
        g = TruncatedSeries.from_coeffs(b)
        assert diamond_product(f, g, delta, 16).coeffs == \
            diamond_product(g, f, delta, 16).coeffs


class TestCompose:
    def test_identity_symbol(self):
        f = TruncatedSeries.from_coeffs([2, 0, 5, 7])
        out = compose(f, PolynomialSymbol.monomial(1), 3)
        assert out.coeffs == f.coeffs

    def test_index_dilation(self):
        f = TruncatedSeries.from_coeffs([1, 1, 1])
        out = compose(f, PolynomialSymbol.monomial(2), 4)
        assert out.coeffs == (1, 0, 1, 0, 1)

    def test_binomial_expansion(self):
        f = TruncatedSeries.monomial(3)
        out = compose(f, PolynomialSymbol.from_coeffs([1, 1]), 3)
        assert out.coeffs == (1, 3, 3, 1)

    @given(exact_lists, symbol_coeffs(), st.integers(0, 16))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, a, alphas, n_max):
        f = TruncatedSeries.from_coeffs(a)
        phi = PolynomialSymbol.from_coeffs(alphas)
        out = compose(f, phi, n_max)
        assert list(out.coeffs) == compose_reference(a, alphas, n_max)

    def test_float_power_beyond_float_range_rejected(self):
        # phi**2 = 1e400 z**2 leaves float range although f has no z**2 term.
        f = TruncatedSeries.from_coeffs([1.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            compose(f, PolynomialSymbol.from_coeffs([0, 1e200]), 2)


class TestDiamondSubstitute:
    def test_unity_multiplier_reduces_to_compose(self):
        f = TruncatedSeries.from_coeffs([1, 2, 3])
        phi = PolynomialSymbol.from_coeffs([0, 1, 1])
        u = TruncatedSeries.unity(0)
        delta = make_delta("factorial")
        assert diamond_substitute(u, f, phi, delta, 8).coeffs == \
            compose(f, phi, 8).coeffs

    def test_monomial_triple(self):
        ones = make_delta("ones")
        for m1, m2, m in [(1, 2, 3), (2, 1, 4), (0, 3, 2)]:
            u = TruncatedSeries.monomial(m1)
            f = TruncatedSeries.monomial(m)
            phi = PolynomialSymbol.monomial(m2)
            out = diamond_substitute(u, f, phi, ones, 16)
            assert out.monomial_degree() == m1 + m * m2

    def test_factorial_collapse_to_diamond(self):
        delta = make_delta("factorial")
        u = TruncatedSeries.monomial(1)
        f = TruncatedSeries.monomial(1)
        phi = PolynomialSymbol.monomial(1)
        out = diamond_substitute(u, f, phi, delta, 2)
        assert out.coeffs == (0, 0, 2)

    @given(exact_lists, exact_lists, symbol_coeffs(), deltas, st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, uc, fc, alphas, delta, n_max):
        u = TruncatedSeries.from_coeffs(uc)
        f = TruncatedSeries.from_coeffs(fc)
        phi = PolynomialSymbol.from_coeffs(alphas)
        out = diamond_substitute(u, f, phi, delta, n_max)
        dv = [delta.value(n) for n in range(n_max + 1)]
        assert list(out.coeffs) == substitute_reference(uc, fc, alphas, dv, n_max)
