import math
import random
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsop import criteria
from fpsop.cli import parse_config
from fpsop.criteria import (
    CriterionRequest,
    _certify,
    _exact_or_fsum,
    _exponent,
    _pair,
    _pair_aggregate,
    _q_pairs,
    _reduced,
    column_lower_bound,
    composition_bounds_polynomial,
    composition_norm_monomial,
    multiplier_algebra_bound,
    substitution_bounds_monomial_multiplier,
    substitution_bounds_monomial_pair,
    substitution_bounds_monomial_symbol,
)
from fpsop.operators import build_matrix, norm_estimate_l2
from fpsop.series import PolynomialSymbol, TruncatedSeries
from fpsop.weights import (DeltaSequence, SpaceConfig, ValidationError, WeightSequence,
                           _explicit_fn, _ReadOnce, _safe_float, make_beta, make_delta)

from oracles import (cor26_ratios_reference, kernel_rows_reference, power_sum_upper_reference,
                     q_aggregate_reference, rand_symbol_coeffs, ratio_reference,
                     shifted_lower_reference, thm21_ratios_reference)

ones = make_delta("ones")
hardy = make_beta("hardy")


def geometric_beta(n_top, base=Fraction(1, 2)):
    return make_beta([base ** n for n in range(n_top + 1)])


def request(beta, delta, p=2, degree=512, tol=1e-7, window=10, stride=None, shift=None, **kw):
    """A request; ``stride`` and ``shift`` stand for ``phi = z**stride`` and
    ``u = z**shift``."""
    space = SpaceConfig(p=p, truncation_degree=degree, tail_window=window, tolerance=tol)
    if stride is not None:
        kw["phi"] = PolynomialSymbol.monomial(stride)
    if shift is not None:
        kw["u"] = TruncatedSeries.monomial(shift)
    return CriterionRequest(beta=beta, delta=delta, space=space, **kw)


class TestCompositionNormMonomial:
    def test_hardy_all_strides(self):
        for m in (1, 2, 5):
            cert = composition_norm_monomial(request(hardy, ones, stride=m))
            assert cert.value == 1.0
            assert cert.attained_at == 0
            assert cert.kind == "exact"

    def test_dirichlet_stride_four_approaches_two(self):
        cert = composition_norm_monomial(
            request(make_beta("dirichlet"), ones, stride=4, degree=2048, tol=1e-5))
        assert 2.0 - cert.value < 1e-3
        assert cert.value < 2.0
        assert cert.attained_at is None
        assert cert.converged

    def test_bergman_stride_two(self):
        cert = composition_norm_monomial(
            request(make_beta("bergman"), ones, stride=2))
        assert cert.value == 1.0
        assert cert.attained_at == 0

    def test_stride_inferred_from_symbol(self):
        cert = composition_norm_monomial(
            request(hardy, ones, phi=PolynomialSymbol.monomial(3)))
        assert cert.value == 1.0

    def test_constant_symbol_rejected(self):
        with pytest.raises(ValidationError):
            composition_norm_monomial(request(hardy, ones, stride=0))

    def test_geometric_beta_attains_at_zero(self):
        cert = composition_norm_monomial(
            request(geometric_beta(1024), ones, stride=2))
        assert cert.value == 1.0 and cert.attained_at == 0


class TestCompositionBoundsPolynomial:
    def test_geometric_beta_squares(self):
        req = request(geometric_beta(512), ones, phi=PolynomialSymbol.monomial(2))
        upper, lower = composition_bounds_polynomial(req)
        assert upper.value ** 2 == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert upper.kind == "upper" and upper.converged
        assert lower.value == pytest.approx(1.0, abs=1e-12)
        assert lower.kind == "lower"

    def test_hardy_squares_diverge(self):
        req = request(hardy, ones, phi=PolynomialSymbol.monomial(2))
        upper, lower = composition_bounds_polynomial(req)
        assert math.isinf(upper.value) and not upper.converged
        assert upper.attained_at is None
        assert lower.value == pytest.approx(1.0, abs=1e-12)

    def test_constant_symbol(self):
        phi = PolynomialSymbol.from_coeffs([Fraction(1, 2)])
        req = request(hardy, ones, phi=phi)
        upper, lower = composition_bounds_polynomial(req)
        assert upper.value == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-12)
        assert lower.value == pytest.approx(1.0, abs=1e-12)

    def test_upper_dominates_lower_when_certified(self):
        rng = random.Random(31)
        certified = 0
        for _ in range(8):
            alphas = rand_symbol_coeffs(rng, 3, num_max=2, den_max=4)
            phi = PolynomialSymbol.from_coeffs([a / 8 for a in alphas])
            req = request(geometric_beta(96, Fraction(1, 3)), ones,
                          degree=96, phi=phi)
            upper, lower = composition_bounds_polynomial(req)
            if upper.converged and math.isfinite(upper.value):
                certified += 1
                assert math.isfinite(lower.value)
                assert upper.value >= lower.value - 1e-9
        assert certified > 0

    def test_p_one_sup_convention(self):
        req = request(geometric_beta(128), ones, p=1, degree=128,
                      phi=PolynomialSymbol.monomial(2))
        upper, lower = composition_bounds_polynomial(req)
        assert any("p=1" in n for n in upper.notes)
        assert upper.value >= lower.value - 1e-9


class TestSubstitutionBoundsMonomialSymbol:
    def test_flat_weights_diverge(self):
        upper, lower = substitution_bounds_monomial_symbol(
            request(hardy, ones, stride=1))
        assert math.isinf(upper.value) and not upper.converged

    def test_inverse_factorial_exact_constant(self):
        upper, lower = substitution_bounds_monomial_symbol(
            request(hardy, make_delta("inverse-factorial"), degree=100, stride=2))
        assert upper.value ** 2 == pytest.approx(Fraction(73, 36), abs=1e-12)
        assert upper.attained_at == 4
        assert upper.converged

    def test_dirichlet_lower_constant_ratio(self):
        upper, lower = substitution_bounds_monomial_symbol(
            request(make_beta("dirichlet"), ones, stride=2,
                    u=TruncatedSeries.monomial(1)))
        assert lower.value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert lower.kind == "lower"

    def test_upper_scales_with_multiplier_norm(self):
        u = TruncatedSeries.from_coeffs([2])
        a, _ = substitution_bounds_monomial_symbol(
            request(hardy, make_delta("inverse-factorial"), degree=64,
                    stride=2, u=u))
        b, _ = substitution_bounds_monomial_symbol(
            request(hardy, make_delta("inverse-factorial"), degree=64, stride=2))
        assert a.value == pytest.approx(2 * b.value, rel=1e-12)

    def test_zero_stride_rejected(self):
        with pytest.raises(ValidationError):
            substitution_bounds_monomial_symbol(request(hardy, ones, stride=0))


class TestMultiplierAlgebraBound:
    def test_flat_weights_diverge(self):
        cert = multiplier_algebra_bound(request(hardy, ones))
        assert math.isinf(cert.value)
        assert not cert.converged
        assert cert.attained_at is None

    def test_inverse_factorial(self):
        cert = multiplier_algebra_bound(
            request(hardy, make_delta("inverse-factorial"), degree=100))
        assert cert.value == pytest.approx(1.5, abs=1e-12)
        assert cert.value ** 2 == pytest.approx(Fraction(9, 4), abs=1e-12)
        assert cert.attained_at == 2
        assert cert.kind == "upper"

    def test_gaussian_beta(self):
        beta = make_beta([Fraction(1, 2 ** (n * n)) for n in range(65)])
        cert = multiplier_algebra_bound(request(beta, ones, degree=64))
        assert cert.value ** 2 == pytest.approx(Fraction(33, 16), abs=1e-12)
        assert cert.attained_at == 2

    def test_geometric_delta_contracts(self):
        delta = make_delta("geometric", ratio=Fraction(1, 2))
        cert = multiplier_algebra_bound(request(hardy, delta, degree=128))
        assert math.isinf(cert.value)


class TestSubstitutionBoundsMonomialMultiplier:
    def test_matches_composition_bounds_at_zero_shift(self):
        rng = random.Random(7)
        for _ in range(3):
            alphas = [a / 3 for a in rand_symbol_coeffs(rng, 3, num_max=2)]
            phi = PolynomialSymbol.from_coeffs(alphas)
            beta = geometric_beta(64, Fraction(1, 3))
            r = request(beta, ones, degree=64, phi=phi, shift=0)
            up_a, lo_a = substitution_bounds_monomial_multiplier(r)
            up_b, lo_b = composition_bounds_polynomial(
                request(beta, ones, degree=64, phi=phi))
            if math.isfinite(up_a.value):
                assert up_a.value == pytest.approx(up_b.value, abs=1e-12)
            assert lo_a.value == pytest.approx(lo_b.value, abs=1e-12)

    def test_geometric_beta_shift_one(self):
        req = request(geometric_beta(512), ones,
                      phi=PolynomialSymbol.monomial(2), shift=1)
        upper, lower = substitution_bounds_monomial_multiplier(req)
        assert upper.value == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert lower.value == pytest.approx(0.5, abs=1e-12)

    def test_lower_matches_progression_bound(self):
        for m1, m2 in [(1, 2), (2, 3)]:
            beta = make_beta("dirichlet")
            r = request(beta, ones, phi=PolynomialSymbol.monomial(m2), shift=m1,
                        degree=256)
            _, lo = substitution_bounds_monomial_multiplier(r)
            _, k_cert = substitution_bounds_monomial_pair(
                request(beta, ones, stride=m2, shift=m1, degree=256))
            assert lo.value == pytest.approx(k_cert.value, abs=1e-12)

    def test_shift_inferred_from_multiplier(self):
        req = request(geometric_beta(256), ones, degree=256,
                      phi=PolynomialSymbol.monomial(2),
                      u=TruncatedSeries.monomial(1))
        upper, lower = substitution_bounds_monomial_multiplier(req)
        assert upper.value == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_nonmonomial_multiplier_rejected(self):
        req = request(hardy, ones, phi=PolynomialSymbol.monomial(2),
                      u=TruncatedSeries.from_coeffs([1, 1]))
        with pytest.raises(ValidationError):
            substitution_bounds_monomial_multiplier(req)


class TestSubstitutionBoundsMonomialPair:
    def test_flat_everything_is_one(self):
        gamma, kappa = substitution_bounds_monomial_pair(
            request(hardy, ones, shift=1, stride=1))
        assert gamma.value == 1.0 and kappa.value == 1.0
        assert gamma.kind == "upper" and kappa.kind == "lower"

    def test_dirichlet_tight_pair(self):
        gamma, kappa = substitution_bounds_monomial_pair(
            request(make_beta("dirichlet"), ones, shift=1, stride=2))
        assert gamma.value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert kappa.value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert gamma.value == kappa.value

    def test_factorial_delta_unbounded(self):
        """The ratios grow as ``m + 1``: the upper reads ``inf``, the lower keeps
        its largest ratio ``N + 1``; both are flagged divergent."""
        gamma, kappa = substitution_bounds_monomial_pair(
            request(hardy, make_delta("factorial"), shift=1, stride=1))
        assert math.isinf(gamma.value)
        assert kappa.value == 513.0
        for cert in (gamma, kappa):
            assert not cert.converged
            assert "growth does not decay across dyadic windows; divergent scan" in cert.notes

    def test_zero_stride_rejected(self):
        with pytest.raises(ValidationError):
            substitution_bounds_monomial_pair(request(hardy, ones, shift=1, stride=0))

    def test_shift_zero_allowed(self):
        gamma, kappa = substitution_bounds_monomial_pair(
            request(make_beta("bergman"), ones, shift=0, stride=2))
        assert gamma.value >= kappa.value - 1e-12


def identity_matrix(n):
    return build_matrix(None, PolynomialSymbol.monomial(1), ones, n, n)


def column_lower(T, beta, p=2):
    """``column_lower_bound`` of ``T`` on a request truncated at its last column."""
    return column_lower_bound(T, request(beta, ones, p=p, degree=T.n_cols,
                                         window=min(10, T.n_cols)))


class TestColumnLowerBound:
    def test_identity_attains_one_at_zero(self):
        cert = column_lower(identity_matrix(8), make_beta("hardy"), 2)
        assert cert.value == pytest.approx(1.0)
        assert cert.attained_at == 0
        assert cert.kind == "lower"

    def test_dirichlet_substitution_ties_resolve_low(self):
        u = TruncatedSeries.monomial(1)
        T = build_matrix(u, PolynomialSymbol.monomial(2), ones, 33, 16)
        cert = column_lower(T, make_beta("dirichlet"), 2)
        assert cert.value == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_never_exceeds_l2_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            coeffs = [Fraction(int(x), 4) for x in rng.integers(-8, 9, size=5)]
            u = TruncatedSeries.from_coeffs(coeffs)
            T = build_matrix(u, None, ones, 16, 8)
            beta = make_beta("bergman")
            lower = column_lower(T, beta, 2)
            oracle = norm_estimate_l2(T, beta)
            assert lower.value <= oracle.value + 1e-9

    def test_a_column_lower_bound_of_the_identity_is_one(self):
        """Column 10 of the identity on the power law -150 has the subnormal
        square ``w(10)**2``; its ratio read 1.0000000000013167."""
        cert = column_lower(identity_matrix(16), make_beta(-150.0), 2)
        assert cert.value == 1.0

    def test_a_matrix_of_another_column_count_is_rejected(self):
        with pytest.raises(ValidationError, match="truncation degree"):
            column_lower_bound(identity_matrix(8), request(hardy, ones, degree=9, window=4))


class TestLowerSideRule:
    """An upper reads ``inf`` on overflow or divergence; a lower or exact
    certificate never does."""

    space = SpaceConfig(p=2, truncation_degree=9, tail_window=2)

    def certify(self, contributions, kind="lower"):
        return _certify(contributions, kind=kind, space=self.space)

    def test_a_divergent_scan_keeps_its_largest_value(self):
        rows = [float(n + 1) for n in range(10)]
        upper, lower = self.certify(rows, "upper"), self.certify(rows)
        assert upper.value == math.inf and not upper.converged
        assert lower.value == 10.0 and not lower.converged
        assert lower.attained_at is None
        assert lower.notes == upper.notes == (
            "growth does not decay across dyadic windows; divergent scan",)

    def test_an_exact_value_beyond_float_range_reads_as_the_largest_float(self):
        for kind in ("lower", "exact"):
            cert = self.certify([1, 10 ** 400, (10 ** 401, 3)] + [0] * 7, kind)
            assert cert.value == sys.float_info.max and not cert.converged
            assert cert.attained_at is None
            assert cert.notes == ("scan overflowed to infinity",)
        assert self.certify([10 ** 400] + [0] * 9, "upper").value == math.inf

    def test_a_float_overflow_is_skipped(self):
        cert = self.certify([2.0, math.inf, 3.0] + [1.0] * 7)
        assert cert.value == 3.0 and cert.attained_at == 2 and not cert.converged
        assert cert.notes == ("float contributions that overflowed to inf skipped",)
        assert self.certify([math.inf] * 10).value == 0.0
        assert self.certify([2.0, math.inf] + [1.0] * 8, "upper").value == math.inf


class TestCertificateShape:
    def test_values_nonnegative_and_kinds_fixed(self):
        req = request(make_beta("bergman"), make_delta("inverse-factorial"),
                      degree=64, stride=2, shift=1)
        gamma, kappa = substitution_bounds_monomial_pair(req)
        for cert in (gamma, kappa):
            assert cert.value >= 0
            assert cert.truncation_degree == 64

    @given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([1, 2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_pair_orders_when_finite(self, stride, shift, p):
        req = request(make_beta("bergman"), make_delta("inverse-factorial"),
                      p=p, degree=96, stride=stride, shift=shift)
        gamma, kappa = substitution_bounds_monomial_pair(req)
        if math.isfinite(gamma.value):
            assert gamma.value >= kappa.value - 1e-9


class TestTruncationWindowRule:
    def test_attained_near_edge_reports_none(self):
        beta = make_beta("dirichlet")
        cert = composition_norm_monomial(
            request(beta, ones, stride=2, degree=64, tol=1e-2))
        assert cert.attained_at is None

    def test_interior_attainment_reported(self):
        cert = multiplier_algebra_bound(
            request(hardy, make_delta("inverse-factorial"), degree=64))
        assert cert.attained_at == 2


def test_parsed_monomial_pair_reaches_cor26():
    req = parse_config('{"phi": {"monomial": 2}, "u": {"coeffs": [0, 1]}}')
    assert substitution_bounds_monomial_pair(req)[0].value == 1.0


def test_the_parsed_config_is_the_request():
    """``SpaceConfig`` holds the whole truncation block, and the evaluators
    take the parsed config as they take the request of the same fields."""
    cfg = parse_config('{"phi": {"coeffs": [0, "1/2", 4]}, "truncation": {"degree": 20}}')
    assert isinstance(cfg, CriterionRequest)
    assert cfg.space == SpaceConfig(truncation_degree=20)
    certs = composition_bounds_polynomial(cfg)
    assert certs == composition_bounds_polynomial(
        CriterionRequest(cfg.beta, cfg.delta, cfg.space, cfg.u, cfg.phi))


def test_a_scan_still_growing_past_the_divergence_cap_diverges():
    """The weight ratios of ``z**n -> z**(2n)`` on ``(n+1)**150`` weights
    pass ``DIVERGENCE_CAP`` while the scan is still growing."""
    cfg = parse_config('{"beta": {"power": 150}, "phi": {"monomial": 2},'
                       ' "truncation": {"degree": 20}}')
    cert = composition_norm_monomial(cfg)
    assert criteria.DIVERGENCE_CAP == 1e12
    assert cert.value > 1e43 and not cert.converged
    assert "still growing past the cap 1e+12" in cert.notes


@pytest.mark.parametrize("alphas, n, cut", [
    ((1, 1), 5, True),       # phi(0) != 0: the powers run past any table
    ((0, 1, 1), 5, False),   # phi(0) == 0: the powers stop at n
    ((3,), 0, True),         # a constant reaches degree 0 at every power
    ((3,), 4, False),        # and no power reaches a positive degree
    ((0,), 0, False),        # the zero symbol has no powers past 0
    ((0,), 3, False),
])
def test_natural_power_cut_reads_phi_alone(alphas, n, cut):
    assert criteria._natural_power_cut(PolynomialSymbol(alphas), n) is cut


def _outcome(fn, nums, dens):
    """``("value", type, bits)`` of a ratio, or ``("error", type, text)``."""
    try:
        v = fn(nums, dens)
    except (ValidationError, ArithmeticError) as exc:
        return "error", type(exc), str(exc)
    return "value", type(v), v.hex() if isinstance(v, float) else v


_HUGE_INTS = [math.factorial(k) for k in (20, 170, 171, 400)] + [10 ** 400]

_RATIO_FACTORS = st.one_of(
    st.integers(1, 60),
    st.sampled_from(_HUGE_INTS),
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)),
    st.builds(lambda n, d: Fraction(n, d), st.sampled_from(_HUGE_INTS),
              st.sampled_from(_HUGE_INTS + [1, 3, 7])),
    st.builds(lambda n, d: Fraction(n, d), st.integers(1, 9), st.sampled_from(_HUGE_INTS)),
    st.floats(min_value=5e-324, max_value=1.7e308),
    st.sampled_from([1.0, 0.5, 2.0 ** -1074, 1e-300, 1e300, math.inf]),
)


def _reduced_pair(nums, dens):
    """``_pair`` with an exact pair reduced: an int or a Fraction, else the float."""
    r = _pair(nums, dens)
    return _reduced(*r) if type(r) is tuple else r


class TestRatioMatchesFractionReference:
    """``_pair`` collapses rational factors into two integers; the result,
    reduced, must keep the type and bits of the reference that multiplied
    ``Fraction`` factors, or raise the same error."""

    @pytest.mark.parametrize("nums, dens, expected", [
        # both float products are 1.0: the exact rational is returned
        ([Fraction(1, 3), 1.0], [2], Fraction(1, 6)),
        ([6, 1.0], [Fraction(3, 1), 1.0], 2),
        ([math.factorial(400)], [math.factorial(399)], 400),
        # overflow to inf: the rational part or the float scale
        ([math.factorial(400), 0.5], [1], math.inf),
        ([1e300, 1e300], [3], math.inf),
        ([math.inf], [Fraction(1, 2)], math.inf),
        # underflow to 0.0
        ([Fraction(1, math.factorial(400)), 0.5], [1], 0.0),
        ([1e-300, Fraction(1, 7)], [1e300], 0.0),
        ([Fraction(1, 3), 0.5], [math.inf], 0.0),
    ])
    def test_edge_values(self, nums, dens, expected):
        got = _reduced_pair(nums, dens)
        assert _outcome(_reduced_pair, nums, dens) == _outcome(ratio_reference, nums, dens)
        assert type(got) is type(expected) and got == expected

    @pytest.mark.parametrize("nums, dens", [
        ([1], [2.0 ** -1074, 2.0 ** -1074]),
        ([math.inf, 2], [math.inf]),
        ([Fraction(1, 3)], [0.0]),
    ])
    def test_numerically_indeterminate(self, nums, dens):
        with pytest.raises(ValidationError, match="numerically indeterminate"):
            _reduced_pair(nums, dens)
        assert _outcome(_reduced_pair, nums, dens) == _outcome(ratio_reference, nums, dens)

    @given(st.lists(_RATIO_FACTORS, max_size=5), st.lists(_RATIO_FACTORS, max_size=5))
    @settings(max_examples=500, deadline=None)
    def test_random_factor_mixes(self, nums, dens):
        assert _outcome(_reduced_pair, nums, dens) == _outcome(ratio_reference, nums, dens)


_EXACT_FACTORS = st.one_of(
    st.integers(1, 60),
    st.sampled_from(_HUGE_INTS),
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)),
    st.builds(lambda n, d: Fraction(n, d), st.integers(1, 9), st.sampled_from(_HUGE_INTS)),
)

# Numerators may be zero; denominators are positive, as weights are.
_TERM = st.tuples(
    st.lists(st.one_of(_EXACT_FACTORS, st.sampled_from([0, Fraction(0)])), max_size=3),
    st.lists(_EXACT_FACTORS, max_size=3),
)

_FLOAT_FACTORS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([0.0, 1.0, 0.5, 2.0 ** -1074, 1e300]),
)

# Few distinct values, so a scan has ties and a float among exact pairs.
_TIED_FACTORS = st.sampled_from([1, 2, 3, 4, Fraction(1, 2), Fraction(3, 2), 2.0, 0.5])


class TestPairAggregation:
    """The scans carry exact ratios as unreduced pairs; aggregating pairs must
    give what aggregating the reduced ratios of ``_pair`` gives."""

    @given(st.lists(_TERM, max_size=6),
           st.lists(st.tuples(st.integers(0, 5), _FLOAT_FACTORS), max_size=2),
           st.sampled_from([None, 1, 2, 3, 1.5]))
    @settings(max_examples=400, deadline=None)
    def test_q_pairs_matches_q_aggregate(self, row, floats, qe):
        # a float factor joins a term's numerator; a row with one takes the float path
        row = [(list(nums), dens) for nums, dens in row]
        for i, f in floats:
            if row:
                row[i % len(row)][0].append(f)
        terms = [_pair(nums, dens) for nums, dens in row]
        got = _q_pairs(terms, qe)
        want = q_aggregate_reference([_reduced_pair(nums, dens) for nums, dens in row], qe)
        assert got == want
        assert _safe_float(got).hex() == _safe_float(want).hex()
        if qe != 1.5 and all(type(t) is tuple for t in terms):
            # the aggregator the scans share, on pairs they have powered themselves
            e = qe or 1
            powers = [Fraction(en, ed) ** e for en, ed in terms]
            agg = _pair_aggregate([(en ** e, ed ** e) for en, ed in terms], qe is not None)
            assert Fraction(*agg) == (sum(powers) if qe else max(powers, default=0))

    @given(st.lists(st.one_of(st.none(), st.tuples(st.lists(_TIED_FACTORS, max_size=3),
                                                   st.lists(_TIED_FACTORS, max_size=3))),
                    min_size=1, max_size=12),
           st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_sup_over_pairs_matches_sup_over_reduced_values(self, rows, window):
        space = SpaceConfig(p=2, truncation_degree=max(len(rows) - 1, window),
                            tail_window=window)

        def cert(ratio):
            return _certify([None if r is None else ratio(*r) for r in rows],
                            kind="exact", space=space)

        assert cert(_pair) == cert(_reduced_pair)


class TestExactOrFsum:
    """Rational values are summed as integers over one common denominator."""

    @given(st.lists(st.one_of(
        st.integers(0, 10 ** 30),
        st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 15),
        st.builds(Fraction, st.integers(0, 60), st.sampled_from(_HUGE_INTS)),
    ), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_fraction_sum(self, values):
        assert _exact_or_fsum(values) == sum(values, 0)

    def test_float_sum_beyond_float_range_is_inf(self):
        assert _exact_or_fsum([1e308, Fraction(1, 3), 1e308]) == math.inf


class _Float(float):
    """A float subclass, as a custom weight function may return."""


def _reference_kernel_sup(req, stride, scale, note):
    """``criteria._kernel_sup`` on the per-term reference rows."""
    space = req.space
    return _certify(
        kernel_rows_reference(req, stride), kind="upper", space=space,
        outer_exponent=1 if space.sup_mode else _exponent(1, space.q),
        scale=scale, q_sup=space.sup_mode, notes=(note,),
    )


def _kernel_outcomes(req):
    """The cor24 and thm23 upper certificates, each as comparable fields, or
    the error raised."""
    out = []
    for evaluate in (multiplier_algebra_bound,
                     lambda r: substitution_bounds_monomial_symbol(r)[0]):
        try:
            c = evaluate(req)
        except ValidationError as exc:
            out.append(("error", str(exc)))
            continue
        out.append((float(c.value).hex(), c.attained_at, float(c.tail_delta).hex(),
                    c.converged, c.notes))
    return out


def _typed(row):
    return (type(row), row.hex() if type(row) is float else row)


def _kernel_rows(req, stride):
    """The rows ``_kernel_sup`` hands to ``_certify``, each with its type, or
    the error raised."""
    seen = []

    def capture(contributions, **kw):
        seen.extend(_typed(r) for r in contributions)

    try:
        with mock.patch.object(criteria, "_certify", capture):
            criteria._kernel_sup(req, stride, 1.0, "")
    except ValidationError as exc:
        seen.append(("error", str(exc)))
    return seen


def _reference_rows(req, stride):
    seen = []
    try:
        seen.extend(_typed(r) for r in kernel_rows_reference(req, stride))
    except ValidationError as exc:
        seen.append(("error", str(exc)))
    return seen


def _unrelated_fractions(size):
    return st.lists(st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6)),
                    min_size=size, max_size=size)


@st.composite
def _kernel_requests(draw):
    degree = draw(st.integers(1, 20))
    # From index `switch` on, a custom weight returns float subclasses.
    switch = draw(st.integers(0, degree + 1))
    beta_kind = draw(st.sampled_from(
        ["list", "hardy", "bergman", "dirichlet", "power", "huge", "geometric", "custom"]))
    if beta_kind == "list":
        beta = make_beta(draw(_unrelated_fractions(degree + 1)))
    elif beta_kind == "geometric":
        beta = geometric_beta(degree, draw(st.sampled_from([Fraction(1, 2), Fraction(7, 11)])))
    elif beta_kind == "power":
        # Near degree 20, -150 overflows the powers of kernel terms, -160
        # underflows w(k) w(n-k) to zero (an indeterminate ratio) and 150
        # overflows it, to a zero scale.
        beta = make_beta(draw(st.sampled_from([-1.5, 0.75, 2.0, -150.0, -160.0, 150.0])))
    elif beta_kind == "huge":
        # Plain floats whose products w(k) w(n-k) overflow: every scale is zero.
        beta = WeightSequence(lambda n: 1e200 * (n + 1))
    elif beta_kind == "custom":
        beta = WeightSequence(lambda n: Fraction(1, n + 1) if n < switch else _Float(1 / (n + 1)))
    else:
        beta = make_beta(beta_kind)
    delta_kind = draw(st.sampled_from(
        ["list", "ones", "factorial", "inverse-factorial", "geometric", "custom"]))
    if delta_kind == "list":
        delta = make_delta([1] + draw(_unrelated_fractions(degree)))
    elif delta_kind == "geometric":
        delta = make_delta("geometric", ratio=draw(st.sampled_from(["2/3", "7/11", "3"])))
    elif delta_kind == "custom":
        delta = DeltaSequence(lambda n: math.factorial(n) if n < switch
                              else _Float(math.factorial(n)))
    else:
        delta = make_delta(delta_kind)
    u = draw(st.sampled_from([None, TruncatedSeries((1, Fraction(1, 2))),
                              TruncatedSeries((Fraction(2, 3), 0, 3))]))
    space = SpaceConfig(p=draw(st.sampled_from([2, Fraction(3, 2), Fraction(4, 3), 3, 1])),
                        truncation_degree=degree,
                        tail_window=draw(st.integers(1, min(degree, 4))))
    return CriterionRequest(beta=beta, delta=delta, space=space, u=u,
                            phi=PolynomialSymbol.monomial(draw(st.integers(1, 3))))


class TestKernelRowsMatchPerTermReference:
    """``_kernel_sup`` builds rows of rational weights from per-index pairs
    raised to q once; its certificates must equal those of the per-term
    route it replaced, and a float weight must send rows to that route."""

    @given(_kernel_requests())
    @settings(max_examples=250, deadline=None)
    def test_certificates_equal_the_reference(self, req):
        got = _kernel_outcomes(req)
        with mock.patch.object(criteria, "_kernel_sup", _reference_kernel_sup):
            want = _kernel_outcomes(req)
        assert got == want

    @given(_kernel_requests())
    @settings(max_examples=250, deadline=None)
    def test_rows_equal_the_reference_rows(self, req):
        """Each row, not only the certificate: an exact row stays exact and a
        float row has the same type and bits."""
        for stride in {1, req.phi.monomial_degree()}:
            assert _kernel_rows(req, stride) == _reference_rows(req, stride)

    def test_infinite_scale_on_a_vanishing_ratio(self):
        """Row 2 has a term ``(1 / 10**800) * (1.0 / 1e-320)``: the exact ratio
        rounds to 0.0 and the float scale to inf, which ``_pair`` reads as inf."""
        req = CriterionRequest(
            beta=WeightSequence(lambda n: 1e-160 if n == 1 else 1.0),
            delta=make_delta([1, 10 ** 400, 1]),
            space=SpaceConfig(p=2, truncation_degree=2, tail_window=1))
        rows = _kernel_rows(req, 1)
        assert rows == _reference_rows(req, 1)
        assert rows[2] == _typed(math.inf)

    def test_underflowing_weight_product_is_indeterminate(self):
        """In row 19, ``w(8) w(11)`` of the power law -160 underflows to 0.0:
        the inline division raises ``ZeroDivisionError`` and the row's
        per-term route raises the indeterminate-ratio error."""
        req = request(make_beta(-160.0), ones, degree=20)
        rows = _kernel_rows(req, 1)
        assert rows == _reference_rows(req, 1)
        assert rows[-1] == ("error", "ratio of weights is numerically indeterminate; "
                                     "use exact weight lists")

    @pytest.mark.parametrize("beta, delta, stride, message", [
        (["1", "1/2", "1/4"], "ones", 1,
         "explicit beta list has 3 entries; index 3 is out of range"),
        (["1", "1/3", "1/9", "1/27"], [1, "1/2", "1/6"], 2,
         "explicit delta list has 3 entries; index 3 is out of range"),
        ([1, 1, 1, 1, 1], [1, "2/3", "4/9", "8/27", "16/81", "32/243", "64/729"], 3,
         "explicit beta list has 5 entries; index 5 is out of range"),
    ])
    def test_short_list_fails_at_the_same_index(self, beta, delta, stride, message):
        req = request(make_beta(beta), make_delta(delta), degree=12, stride=stride)
        expected = [("error", message)] * 2
        assert _kernel_outcomes(req) == expected
        with mock.patch.object(criteria, "_kernel_sup", _reference_kernel_sup):
            assert _kernel_outcomes(req) == expected


class TestKernelRowsMirrorAtStrideOne:
    """At stride 1 the fast rows build the terms ``k <= n/2`` and mirror them
    (term ``n-k`` is term ``k``).  Rows 0 to 3 hold the edge cases: a lone
    term, odd rows with no middle term and an even row with one."""

    @pytest.mark.parametrize("beta", [
        make_beta("bergman"), make_beta(0.75), hardy, geometric_beta(3, Fraction(2, 3)),
        make_beta([1, Fraction(1, 3), Fraction(5, 7), 2]),
    ])
    @pytest.mark.parametrize("delta", [
        ones, make_delta("factorial"), make_delta([1, Fraction(2, 3), Fraction(9, 4), 5]),
    ])
    @pytest.mark.parametrize("p", [2, Fraction(3, 2), 1])
    def test_rows_zero_to_three_equal_the_reference(self, beta, delta, p):
        req = request(beta, delta, p=p, degree=3, window=1)
        with mock.patch.object(criteria, "_q_pairs", wraps=criteria._q_pairs) as per_term:
            rows = _kernel_rows(req, 1)
        assert len(rows) == 4
        assert rows == _reference_rows(req, 1)
        # Every row is a fast one but row 0 of float weights, where w(0) = 1.0.
        assert per_term.call_count == (1 if type(beta.value(1)) is float else 0)


def _typed_or_error(compute):
    """``compute()`` as a list of typed rows, or ``[("error", text)]``."""
    try:
        return [_typed(r) for r in compute()]
    except ValidationError as exc:
        return [("error", str(exc))]


def _cert_fields(c):
    return (float(c.value).hex(), c.attained_at, float(c.tail_delta).hex(), c.converged,
            c.notes)


@st.composite
def _weights(draw, size):
    """A beta from every weight family the scans branch on: float presets and
    power laws (+-150 reach the fallbacks), rational lists, a float subclass
    from index ``switch`` on, and lists one entry too short."""
    kind = draw(st.sampled_from(
        ["hardy", "bergman", "dirichlet", "power", "list", "short", "custom"]))
    if kind == "power":
        return make_beta(draw(st.sampled_from([-150.0, -1.5, -0.5, 0.75, 2.0, 150.0])))
    if kind in ("list", "short"):
        return make_beta(draw(_unrelated_fractions(size if kind == "list" else size - 1)))
    if kind == "custom":
        switch = draw(st.integers(0, size))
        return WeightSequence(
            lambda n: Fraction(1, n + 1) if n < switch else _Float(1 / (n + 1)))
    return make_beta(kind)


_SYMBOLS = st.one_of(
    st.integers(0, 3).map(PolynomialSymbol.monomial),
    st.lists(st.sampled_from([0, 1, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]),
             min_size=2, max_size=4).map(lambda c: PolynomialSymbol.from_coeffs(c + [1])),
    st.lists(st.sampled_from([0.0, 0.5, -0.25, 0.625, 1.0]),
             min_size=2, max_size=4).map(lambda c: PolynomialSymbol.from_coeffs(c + [0.5])),
)


@st.composite
def _power_sum_cases(draw):
    """``(request, table, shift)`` for the thm22 and thm25 power-sum scans."""
    degree = draw(st.integers(1, 14))
    shift = draw(st.integers(0, 3))
    phi = draw(_SYMBOLS)
    top = max(degree, shift + phi.degree * degree)
    beta = draw(_weights(top + 1))
    delta = draw(st.sampled_from([ones, make_delta("factorial"), make_delta("inverse-factorial")]))
    space = SpaceConfig(p=draw(st.sampled_from([2, Fraction(3, 2), 3, 1, 2.5])),
                        truncation_degree=degree, tail_window=1)
    req = CriterionRequest(beta=beta, delta=delta, space=space, phi=phi)
    table = criteria._build_table(phi, degree_bound=max(degree - shift, 0), max_power=degree)
    return req, table, shift


class TestPowerSumRowsMatchPerTermReference:
    """``_power_sum_upper`` (the thm22 and thm25 uppers) builds float rows
    inline and exact rows from per-power pairs raised to q once; every row,
    the weights it reads and the certificate must equal the per-term route
    it replaced."""

    @staticmethod
    def _run(upper, req, table, shift):
        w, aggs = _ReadOnce(req.beta.value), []

        def row(n, j, agg):
            # An exact row comes as its unreduced pair, for ``row`` to reduce.
            agg = _reduced(*agg) if type(agg) is tuple else agg
            aggs.append(agg)
            return agg

        try:
            cert = _cert_fields(upper(req, table, shift, w, row, ""))
        except ValidationError as exc:
            cert = ("error", str(exc))
        return [_typed(a) for a in aggs], list(w), cert

    @given(_power_sum_cases())
    @settings(max_examples=300, deadline=None)
    def test_rows_reads_and_certificate_equal_the_reference(self, case):
        req, table, shift = case
        got = self._run(criteria._power_sum_upper, req, table, shift)
        want = self._run(power_sum_upper_reference, req, table, shift)
        assert got == want

    @given(_power_sum_cases())
    @settings(max_examples=150, deadline=None)
    def test_evaluators_equal_the_reference(self, case):
        req, _, shift = case
        u_req = CriterionRequest(beta=req.beta, delta=req.delta, space=req.space, phi=req.phi,
                                 u=TruncatedSeries.monomial(shift))
        for evaluate, r in ((composition_bounds_polynomial, req),
                            (substitution_bounds_monomial_multiplier, u_req)):
            outcomes = []
            for upper in (criteria._power_sum_upper, power_sum_upper_reference):
                with mock.patch.object(criteria, "_power_sum_upper", upper):
                    try:
                        outcomes.append([_cert_fields(c) for c in evaluate(r)])
                    except ValidationError as exc:
                        outcomes.append(("error", str(exc)))
            assert outcomes[0] == outcomes[1]

    @given(_power_sum_cases())
    @settings(max_examples=150, deadline=None)
    def test_lowers_equal_the_per_term_reference(self, case):
        """The column terms multiply ``|x|`` into the kernel's ``_pair_parts``,
        read once per degree: each lower has the bits of one ``_pair`` per term."""
        req, _, shift = case
        u_req = CriterionRequest(beta=req.beta, delta=req.delta, space=req.space, phi=req.phi,
                                 u=TruncatedSeries.monomial(shift))
        for evaluate, r in ((composition_bounds_polynomial, req),
                            (substitution_bounds_monomial_multiplier, u_req)):
            try:
                got = _cert_fields(evaluate(r)[1])
            except ValidationError:
                continue  # the upper, which runs first, failed
            assert got == _cert_fields(shifted_lower_reference(r, shift if r is u_req else 0))

    def test_rows_of_underflowing_terms_keep_the_exact_zero(self):
        """On odd degrees every term of ``(1e-300 z + z**2 / 2)**L`` over
        ``w(L)`` of the power law 150 is 0.0 or an exact zero pair: the
        inline row reads 0.0, and its per-term route gives the exact 0."""
        phi = PolynomialSymbol.from_coeffs([0.0, 1e-300, 0.5])
        req = request(make_beta(150.0), ones, degree=11, phi=phi)
        table = criteria._build_table(phi, degree_bound=11, max_power=11)
        got = self._run(criteria._power_sum_upper, req, table, 0)
        assert got == self._run(power_sum_upper_reference, req, table, 0)
        assert got[0][9] == (int, 0)


class TestThm22IsThm25AtShiftZero:
    """``C_phi`` is ``z**0 ◇ C_phi``: ``thm22`` is the shifted power-sum
    bound at shift 0, reads no delta (the kernel is 1) and ignores ``u``."""

    @staticmethod
    def _outcome(evaluate, req):
        try:
            return [_cert_fields(c) for c in evaluate(req)]
        except ValidationError as exc:
            return ("error", str(exc))

    @given(_power_sum_cases())
    @settings(max_examples=150, deadline=None)
    def test_thm22_equals_thm25_at_the_unit_monomial(self, case):
        req = case[0]
        unit = CriterionRequest(beta=req.beta, delta=req.delta, space=req.space, phi=req.phi,
                                u=TruncatedSeries.monomial(0))
        assert self._outcome(composition_bounds_polynomial, req) == self._outcome(
            substitution_bounds_monomial_multiplier, unit)

    @pytest.mark.parametrize("shift", [2, 3])
    def test_thm22_ignores_a_unit_monomial_u(self, shift):
        """The data of seed-11 draw 680 of ``tests/configgen.py`` (``u = z**3``):
        ``thm25`` with ``u = z**2`` or ``z**3`` reads above 1e70, ``thm22`` ``C_phi``."""
        space = SpaceConfig(p=3, truncation_degree=13, tail_window=4)
        kw = dict(beta=make_beta(150.0), delta=ones, space=space,
                  phi=PolynomialSymbol.from_coeffs([0.125, 0.5]))
        plain = self._outcome(composition_bounds_polynomial, CriterionRequest(**kw))
        with_u = CriterionRequest(u=TruncatedSeries.monomial(shift), **kw)
        assert self._outcome(composition_bounds_polynomial, with_u) == plain
        assert float.fromhex(plain[0][0]) == 1.0455159171493411
        assert substitution_bounds_monomial_multiplier(with_u)[0].value > 1e70


@st.composite
def _ratio_cases(draw):
    degree = draw(st.integers(1, 20))
    m1, m2 = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    beta = draw(_weights(max(m1 + m2 * degree, degree) + 1))
    delta = draw(st.sampled_from(
        ["ones", "factorial", "inverse-factorial", "list", "huge", "custom"]))
    if delta == "list":
        delta = make_delta([1] + draw(st.lists(st.integers(1, 10 ** 6), min_size=m1 + m2 * degree,
                                               max_size=m1 + m2 * degree)))
    elif delta == "huge":  # int quotients far beyond float range, and far below it
        delta = DeltaSequence(lambda n: 1 if n == 0 else 10 ** (400 * (-1) ** n + 401))
    elif delta == "custom":
        delta = DeltaSequence(lambda n: 1 if n == 0 else _Float(n))
    else:
        delta = make_delta(delta)
    return beta, delta, m1, m2, degree


class TestRatioListsMatchPerTermReference:
    """``thm21`` and ``cor26`` build each float weight ratio inline; every
    ratio must have the type and bits of the ``_pair`` it replaced."""

    @given(_ratio_cases())
    @settings(max_examples=300, deadline=None)
    def test_thm21_ratios(self, case):
        beta, _, _, m, degree = case
        got = _typed_or_error(lambda: criteria._ratios(
            [(1, beta.value(n * m), 1, 1, beta.value(n)) for n in range(degree + 1)]))
        assert got == _typed_or_error(lambda: thm21_ratios_reference(beta, m, degree))

    @given(_ratio_cases())
    @settings(max_examples=300, deadline=None)
    def test_cor26_ratios(self, case):
        beta, delta, m1, m2, degree = case
        got = _typed_or_error(lambda: criteria._ratios([
            (delta.value(m1 + m * m2), beta.value(m1 + m * m2),
             delta.value(m1), delta.value(m * m2), beta.value(m)) for m in range(degree + 1)]))
        assert got == _typed_or_error(
            lambda: cor26_ratios_reference(beta, delta, m1, m2, degree))

    def test_zero_quotient_times_infinite_weight_ratio(self):
        """``d(2) / (d(1) d(1))`` rounds to 0.0 and ``w(2) / w(1)`` to inf:
        inline that is nan, so the list takes ``_pair``, which reads inf."""
        beta = WeightSequence(lambda n: 1e-300 if n == 1 else 1e300)
        delta = make_delta([1, 10 ** 400, 1])
        got = criteria._ratios([(delta.value(2), beta.value(2), delta.value(1), delta.value(1),
                                 beta.value(1))])
        assert got == [math.inf] == cor26_ratios_reference(beta, delta, 1, 1, 1)[1:]


class TestShortListsFailAtTheSameIndex:
    """A short explicit list fails at the same index, with the same text, as
    on the per-term routes."""

    @pytest.mark.parametrize("evaluate, kw, beta_size", [
        (composition_norm_monomial, {"stride": 2}, 15),
        (composition_bounds_polynomial, {"phi": PolynomialSymbol.from_coeffs(
            [0, Fraction(1, 2), Fraction(1, 2)])}, 6),
        (composition_bounds_polynomial, {"phi": PolynomialSymbol.from_coeffs([0.0, 0.5, 0.5])}, 6),
        (substitution_bounds_monomial_multiplier, {"shift": 2, "phi": PolynomialSymbol.from_coeffs(
            [0, Fraction(1, 2), Fraction(1, 3)])}, 7),
        (substitution_bounds_monomial_pair, {"shift": 1, "stride": 2}, 18),
    ])
    @pytest.mark.parametrize("values", [
        lambda n: Fraction(1, n + 1), lambda n: 1 / (n + 1) ** 0.5])
    def test_same_index_and_text(self, evaluate, kw, beta_size, values):
        # Exact entries read as rationals, float entries as plain floats.
        beta = WeightSequence(_explicit_fn(tuple(values(n) for n in range(beta_size)), "beta"))
        req = request(beta, ones, degree=10, **kw)
        with pytest.raises(ValidationError) as got:
            evaluate(req)
        assert f"explicit beta list has {beta_size} entries" in str(got.value)
        if evaluate is composition_norm_monomial:
            want = lambda: thm21_ratios_reference(beta, 2, 10)
        elif evaluate is substitution_bounds_monomial_pair:
            want = lambda: cor26_ratios_reference(beta, ones, 1, 2, 10)
        else:
            def want():
                with mock.patch.object(criteria, "_power_sum_upper", power_sum_upper_reference):
                    evaluate(req)
        with pytest.raises(ValidationError) as expected:
            want()
        assert str(got.value) == str(expected.value)
