import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsop.operators import (
    _L2_ITERATIONS,
    _L2_TOL,
    BoundCertificate,
    OperatorMatrix,
    _finite_scaled,
    _power_top,
    apply,
    build_matrix,
    column_lower_bound,
    norm_estimate_l2,
    norm_lower_search,
)
from fpsop.series import (
    PolynomialSymbol,
    TruncatedSeries,
    diamond_product,
    diamond_substitute,
)
from fpsop.weights import ValidationError, make_beta, make_delta

from oracles import rand_coeffs, rand_symbol_coeffs

ones = make_delta("ones")


def identity_matrix(n):
    return build_matrix("composition", None, PolynomialSymbol.monomial(1), ones, n, n)


def dense_column(T, big_l):
    """Column ``big_l`` of ``T`` as a dense list over rows ``0..n_rows``."""
    out = [0.0 if T.mode == "float" else 0] * (T.n_rows + 1)
    for row, value in T.columns[big_l]:
        out[row] = value
    return out


class TestBoundCertificate:
    def test_kind_validated(self):
        with pytest.raises(ValidationError):
            BoundCertificate(value=1.0, kind="sideways", attained_at=None,
                             truncation_degree=4, tail_delta=0.0, converged=True)

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            BoundCertificate(value=-2.0, kind="lower", attained_at=None,
                             truncation_degree=4, tail_delta=0.0, converged=True)

    def test_report_dict_stringifies_infinity(self):
        cert = BoundCertificate(value=math.inf, kind="upper", attained_at=None,
                                truncation_degree=4, tail_delta=math.inf,
                                converged=False)
        d = cert.as_report_dict()
        assert d["value"] == "inf" and d["tail_delta"] == "inf"


class TestBuildMatrix:
    def test_composition_monomial_pattern(self):
        T = build_matrix("composition", None, PolynomialSymbol.monomial(3), ones, 12, 4)
        for big_l in range(5):
            assert dense_column(T, big_l) == [1 if n == 3 * big_l else 0 for n in range(13)]

    def test_substitution_monomial_pattern(self):
        u = TruncatedSeries.monomial(1)
        T = build_matrix("substitution", u, PolynomialSymbol.monomial(2), ones, 9, 4)
        for big_l in range(5):
            assert dense_column(T, big_l) == [1 if n == 1 + 2 * big_l else 0 for n in range(10)]

    def test_diamond_mult_unity_is_identity(self):
        u = TruncatedSeries.unity(0)
        T = build_matrix("diamond-mult", u, None, make_delta("factorial"), 5, 5)
        for big_l in range(6):
            assert dense_column(T, big_l) == [1 if n == big_l else 0 for n in range(6)]

    def test_composition_general_matches_powers(self):
        phi = PolynomialSymbol.from_coeffs([0, 1, 1])
        T = build_matrix("composition", None, phi, ones, 8, 3)
        base = TruncatedSeries.from_coeffs([0, 1, 1], degree_bound=8)
        acc = TruncatedSeries.unity(8)
        from fpsop.series import cauchy_product
        for big_l in range(4):
            assert dense_column(T, big_l) == list(acc.coeffs)
            acc = cauchy_product(acc, base, 8)

    def test_clipping_warns(self):
        T = build_matrix("composition", None, PolynomialSymbol.monomial(2), ones, 4, 4)
        assert any("clipped" in w for w in T.warnings)

    def test_kind_validated(self):
        with pytest.raises(ValidationError):
            build_matrix("rotation", None, PolynomialSymbol.monomial(1), ones, 4, 4)

    def test_missing_symbol_rejected(self):
        with pytest.raises(ValidationError):
            build_matrix("composition", None, None, ones, 4, 4)


class TestApply:
    def test_columns_are_basis_images(self):
        phi = PolynomialSymbol.from_coeffs([0, 2, 1])
        T = build_matrix("composition", None, phi, ones, 10, 4)
        for big_l in range(5):
            e = TruncatedSeries.monomial(big_l).pad(4)
            assert list(apply(T, e).coeffs) == dense_column(T, big_l)

    def test_zero_maps_to_zero(self):
        T = identity_matrix(6)
        z = TruncatedSeries.from_coeffs([0], degree_bound=6)
        assert all(c == 0 for c in apply(T, z).coeffs)

    def test_two_path_agreement_random(self):
        rng = random.Random(17)
        delta = make_delta("inverse-factorial")
        for _ in range(25):
            uc = rand_coeffs(rng, 3)
            fc = rand_coeffs(rng, 4)
            alphas = rand_symbol_coeffs(rng, 3)
            u = TruncatedSeries.from_coeffs(uc)
            f = TruncatedSeries.from_coeffs(fc)
            phi = PolynomialSymbol.from_coeffs(alphas)
            n_cols = f.degree_bound
            n_rows = 24
            T = build_matrix("substitution", u, phi, delta, n_rows, n_cols)
            via_matrix = apply(T, f)
            direct = diamond_substitute(u, f, phi, delta, n_rows)
            assert via_matrix.coeffs == direct.coeffs

    def test_diamond_mult_two_path(self):
        rng = random.Random(23)
        delta = make_delta("factorial")
        for _ in range(10):
            uc = rand_coeffs(rng, 4)
            fc = rand_coeffs(rng, 4)
            u = TruncatedSeries.from_coeffs(uc)
            f = TruncatedSeries.from_coeffs(fc)
            T = build_matrix("diamond-mult", u, None, delta, 12, f.degree_bound)
            assert apply(T, f).coeffs == diamond_product(u, f, delta, 12).coeffs

    def test_wide_input_rejected(self):
        T = identity_matrix(3)
        with pytest.raises(ValidationError):
            apply(T, TruncatedSeries.from_coeffs([1, 0, 0, 0, 1]))


class TestColumnLowerBound:
    def test_identity_attains_one_at_zero(self):
        cert = column_lower_bound(identity_matrix(8), make_beta("hardy"), 2)
        assert cert.value == pytest.approx(1.0)
        assert cert.attained_at == 0
        assert cert.kind == "lower"

    def test_dirichlet_substitution_ties_resolve_low(self):
        u = TruncatedSeries.monomial(1)
        T = build_matrix("substitution", u, PolynomialSymbol.monomial(2), ones, 33, 16)
        cert = column_lower_bound(T, make_beta("dirichlet"), 2)
        assert cert.value == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_never_exceeds_l2_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            coeffs = [Fraction(int(x), 4) for x in rng.integers(-8, 9, size=5)]
            u = TruncatedSeries.from_coeffs(coeffs)
            T = build_matrix("diamond-mult", u, None, ones, 16, 8)
            beta = make_beta("bergman")
            lower = column_lower_bound(T, beta, 2)
            oracle = norm_estimate_l2(T, beta)
            assert lower.value <= oracle.value + 1e-9


class TestNormEstimateL2:
    def test_diagonal_matrix(self):
        cols = (((0, 1.0),), ((1, 3.0),), ((2, 2.0),))
        T = OperatorMatrix(kind="diamond-mult", n_rows=2, n_cols=2, columns=cols,
                           mode="float")
        cert = norm_estimate_l2(T, make_beta("hardy"))
        assert cert.value == pytest.approx(3.0, abs=1e-10)

    def test_identity(self):
        cert = norm_estimate_l2(identity_matrix(10), make_beta("dirichlet"))
        assert cert.value == pytest.approx(1.0, abs=1e-10)
        assert cert.converged

    def test_composition_monomial_hardy_is_one(self):
        for m in (2, 3):
            T = build_matrix("composition", None, PolynomialSymbol.monomial(m),
                             ones, 3 * 64, 64)
            cert = norm_estimate_l2(T, make_beta("hardy"))
            assert cert.value == pytest.approx(1.0, abs=1e-9)

    def test_dirichlet_squares_approach_root_two(self):
        beta = make_beta("dirichlet")
        last = 0.0
        for n_cols in (64, 256, 1024, 2048):
            T = build_matrix("composition", None, PolynomialSymbol.monomial(2),
                             ones, 2 * n_cols, n_cols)
            cert = norm_estimate_l2(T, beta)
            assert last < cert.value < math.sqrt(2)
            last = cert.value
        assert math.sqrt(2) - last < 1e-3

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(42)
        beta = make_beta("bergman")
        for _ in range(5):
            coeffs = [float(x) for x in rng.normal(size=6)]
            u = TruncatedSeries.from_coeffs(coeffs)
            T = build_matrix("diamond-mult", u, None, make_delta("ones"), 20, 14)
            dense = T.scaled_array(beta).toarray()
            want = np.linalg.svd(dense, compute_uv=False)[0]
            got = norm_estimate_l2(T, beta)
            assert got.value == pytest.approx(want, rel=1e-9)


def float_matrix(columns, n_rows=None):
    if n_rows is None:
        n_rows = max((r for col in columns for r, _ in col), default=0)
    return OperatorMatrix(kind="diamond-mult", n_rows=n_rows,
                          n_cols=len(columns) - 1, columns=tuple(columns),
                          mode="float")


def dense_top(T, beta):
    return np.linalg.svd(T.scaled_array(beta).toarray(), compute_uv=False)[0]


class TestLoneColumnSplit:
    def test_all_lone_is_largest_column_norm(self):
        beta = make_beta("dirichlet")
        T = build_matrix("composition", None, PolynomialSymbol.monomial(3),
                         ones, 3 * 300, 300)
        cert = norm_estimate_l2(T, beta)
        want = float(np.abs(T.scaled_array(beta).toarray()).max())
        assert cert.value == want
        assert cert.converged and cert.tail_delta == 0.0
        assert "iterations=0" in cert.notes

    def test_zero_matrix(self):
        cert = norm_estimate_l2(float_matrix([(), (), ()], n_rows=2),
                                make_beta("hardy"))
        assert cert.value == 0.0 and cert.converged
        assert "iterations=0" in cert.notes

    @pytest.mark.parametrize("lone", [10.0, 0.5])
    def test_lone_column_beside_coupled_block(self, lone):
        beta = make_beta("hardy")
        block = [((1, 1.0), (2, 2.0)), ((1, 3.0), (2, -1.0))]
        T = float_matrix(block[:1] + [((0, lone),)] + block[1:])
        cert = norm_estimate_l2(T, beta)
        want = dense_top(T, beta)
        assert want == pytest.approx(max(lone, dense_top(float_matrix(block), beta)))
        assert cert.value == pytest.approx(want, rel=1e-12)
        assert cert.converged
        assert "iterations=0" not in cert.notes

    def test_all_coupled_keeps_the_whole_matrix(self):
        beta = make_beta("bergman")
        u = TruncatedSeries.from_coeffs([1.0, -0.5, 0.25, 2.0])
        T = build_matrix("diamond-mult", u, None, ones, 24, 20)
        cert = norm_estimate_l2(T, beta)
        sigma, iterations, converged, delta, _ = _power_top(
            _finite_scaled(T, beta), _L2_ITERATIONS, _L2_TOL)
        assert cert.value == sigma
        assert cert.converged == converged and cert.tail_delta == delta
        assert f"iterations={iterations}" in cert.notes
        assert not any("lone" in note for note in cert.notes)

    def test_entries_near_float_range_are_scaled_by_a_power_of_two(self):
        # the scaling is exact, so the run on 2**400 * A with tolerance
        # 2**400 * tol is the run on A, scaled
        beta = make_beta("bergman")
        u = TruncatedSeries.from_coeffs([1.0, -0.5, 0.25, 2.0])
        A = _finite_scaled(build_matrix("diamond-mult", u, None, ones, 24, 20), beta)
        small = _power_top(A, 50_000, 1e-12)
        big = _power_top(A * 2.0 ** 400, 50_000, math.ldexp(1e-12, 400))
        assert big[0] == math.ldexp(small[0], 400)
        assert big[1:3] == small[1:3]
        assert big[3] == math.ldexp(small[3], 400)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.integers(1, 6),
       st.lists(st.lists(st.integers(-8, 8).filter(bool), min_size=1, max_size=2),
                max_size=5),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_lone_and_coupled_mix_matches_dense_svd(u_coeffs, block_cols, lone_cols, rnd):
    u = TruncatedSeries.from_coeffs([Fraction(c, 2) for c in u_coeffs]).to_float()
    block = build_matrix("diamond-mult", u, None, ones,
                         block_cols + len(u_coeffs) - 1, block_cols)
    row = block.n_rows + 1
    columns = list(block.columns)
    for values in lone_cols:
        columns.append(tuple((row + i, v / 4) for i, v in enumerate(values)))
        row += len(values)
    rnd.shuffle(columns)
    T = float_matrix(columns, n_rows=row)
    beta = make_beta("bergman")
    cert = norm_estimate_l2(T, beta)
    assert cert.value == pytest.approx(dense_top(T, beta), rel=1e-9)


class TestNormLowerSearch:
    def test_identity(self):
        cert = norm_lower_search(identity_matrix(8), make_beta("hardy"), 3)
        assert cert.value == pytest.approx(1.0, abs=1e-9)
        assert cert.kind == "lower"

    def test_p2_agrees_with_power_iteration(self):
        rng = np.random.default_rng(99)
        beta = make_beta("hardy")
        for trial in range(8):
            coeffs = [float(x) for x in rng.normal(size=8)]
            u = TruncatedSeries.from_coeffs(coeffs)
            T = build_matrix("diamond-mult", u, None, ones, 26, 19)
            l2 = norm_estimate_l2(T, beta)
            search = norm_lower_search(T, beta, 2, seed=trial)
            assert search.value == pytest.approx(l2.value, rel=1e-6)

    def test_never_below_column_bound(self):
        rng = np.random.default_rng(3)
        beta = make_beta("dirichlet")
        for p in (1, 2, Fraction(3, 2), 4):
            coeffs = [float(x) for x in rng.normal(size=5)]
            u = TruncatedSeries.from_coeffs(coeffs)
            T = build_matrix("diamond-mult", u, None, ones, 14, 9)
            col = column_lower_bound(T, beta, p)
            search = norm_lower_search(T, beta, p, seed=0)
            assert search.value >= col.value - 1e-12

    def test_deterministic_for_fixed_seed(self):
        u = TruncatedSeries.from_coeffs([1.0, -0.5, 0.25, 2.0])
        T = build_matrix("diamond-mult", u, None, ones, 12, 8)
        beta = make_beta("bergman")
        a = norm_lower_search(T, beta, Fraction(5, 2), seed=7)
        b = norm_lower_search(T, beta, Fraction(5, 2), seed=7)
        assert a.value == b.value


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_substitution_monomial_columns(m1, m2):
    u = TruncatedSeries.monomial(m1)
    T = build_matrix("substitution", u, PolynomialSymbol.monomial(m2), ones,
                     m1 + 5 * m2, 5)
    for big_l in range(6):
        col = dense_column(T, big_l)
        assert col[m1 + big_l * m2] == 1
        assert sum(1 for c in col if c != 0) == 1
