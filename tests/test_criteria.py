import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsop import criteria
from fpsop.criteria import (
    CriterionRequest,
    _certify,
    _exact_or_fsum,
    _exponent,
    _pair,
    _q_pairs,
    _reduced,
    composition_bounds_polynomial,
    composition_norm_monomial,
    multiplier_algebra_bound,
    substitution_bounds_monomial_multiplier,
    substitution_bounds_monomial_pair,
    substitution_bounds_monomial_symbol,
)
from fpsop.series import PolynomialSymbol, TruncatedSeries
from fpsop.weights import (DeltaSequence, SpaceConfig, ValidationError, WeightSequence,
                           _safe_float, make_beta, make_delta)

from oracles import (kernel_rows_reference, q_aggregate_reference, rand_symbol_coeffs,
                     ratio_reference)

ones = make_delta("ones")
hardy = make_beta("hardy")


def geometric_beta(n_top, base=Fraction(1, 2)):
    return make_beta([base ** n for n in range(n_top + 1)])


def request(beta, delta, p=2, degree=512, tol=1e-7, **kw):
    space = SpaceConfig(p=p, truncation_degree=degree, tolerance=tol)
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
        gamma, kappa = substitution_bounds_monomial_pair(
            request(hardy, make_delta("factorial"), shift=1, stride=1))
        assert math.isinf(kappa.value)
        assert not kappa.converged

    def test_zero_stride_rejected(self):
        with pytest.raises(ValidationError):
            substitution_bounds_monomial_pair(request(hardy, ones, shift=1, stride=0))

    def test_shift_zero_allowed(self):
        gamma, kappa = substitution_bounds_monomial_pair(
            request(make_beta("bergman"), ones, shift=0, stride=2))
        assert gamma.value >= kappa.value - 1e-12


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


class TestConflictingSymbolKeys:
    def test_stride_must_match_monomial_phi(self):
        with pytest.raises(ValidationError, match="stride=3 conflicts with phi"):
            request(hardy, ones, phi=PolynomialSymbol.monomial(2), stride=3)

    def test_stride_with_non_monomial_phi_rejected(self):
        phi = PolynomialSymbol((0, Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValidationError, match="stride=2 conflicts with phi"):
            request(hardy, ones, phi=phi, stride=2)

    def test_shift_must_match_monomial_u(self):
        with pytest.raises(ValidationError, match="shift=1 conflicts with u"):
            request(hardy, ones, u=TruncatedSeries((0, 0, 1)), shift=1)

    def test_agreeing_keys_accepted(self):
        req = request(hardy, ones, phi=PolynomialSymbol.monomial(2), stride=2,
                      u=TruncatedSeries((0, 1)), shift=1)
        assert substitution_bounds_monomial_pair(req)[0].value == 1.0


@pytest.mark.parametrize("cap", [0, -1.0, math.inf, math.nan])
def test_request_rejects_a_cap_that_is_not_finite_and_positive(cap):
    with pytest.raises(ValidationError, match="cap must be a finite positive real"):
        request(hardy, ones, stride=2, cap=cap)


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
        got = _q_pairs([_pair(nums, dens) for nums, dens in row], qe)
        want = q_aggregate_reference([_reduced_pair(nums, dens) for nums, dens in row], qe)
        assert got == want
        assert _safe_float(got).hex() == _safe_float(want).hex()

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
                            kind="exact", space=space, cap=1e12)

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
        kernel_rows_reference(req, stride), kind="upper", space=space, cap=req.cap,
        outer_exponent=1 if space.sup_mode else _exponent(1, space.q),
        scale=scale, notes=(note,),
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


def _unrelated_fractions(size):
    return st.lists(st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6)),
                    min_size=size, max_size=size)


@st.composite
def _kernel_requests(draw):
    degree = draw(st.integers(1, 20))
    # From index `switch` on, a custom weight returns float subclasses.
    switch = draw(st.integers(0, degree + 1))
    beta_kind = draw(st.sampled_from(["list", "hardy", "bergman", "geometric", "custom"]))
    if beta_kind == "list":
        beta = make_beta(draw(_unrelated_fractions(degree + 1)))
    elif beta_kind == "geometric":
        beta = geometric_beta(degree, draw(st.sampled_from([Fraction(1, 2), Fraction(7, 11)])))
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
                            stride=draw(st.integers(1, 3)))


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
