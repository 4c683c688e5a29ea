import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsop import operators
from fpsop.cli import parse_config, run
from fpsop.criteria import CriterionRequest, column_lower_bound
from fpsop.operators import (
    _L2_ITERATIONS,
    _L2_TOL,
    BoundCertificate,
    OperatorMatrix,
    _pnorm,
    _power_top,
    apply,
    build_matrix,
    covering_rows,
    norm_estimate_l2,
    norm_lower_search,
)
from fpsop.series import (
    PolynomialSymbol,
    TruncatedSeries,
    diamond_product,
    diamond_substitute,
)
from fpsop.weights import (SpaceConfig, ValidationError, WeightSequence, _explicit_fn,
                           make_beta, make_delta)

from oracles import (csr_toarray, finite_scaled_reference, lone_norms_reference,
                     pnorm_reference, rand_coeffs, rand_symbol_coeffs, scaled_array_reference)

ones = make_delta("ones")


def identity_matrix(n):
    return build_matrix(None, PolynomialSymbol.monomial(1), ones, n, n)


def column_lower(T, beta, p):
    """The monomial column lower bound of ``T`` on ``beta`` at exponent ``p``."""
    space = SpaceConfig(p=p, truncation_degree=T.n_cols, tail_window=min(10, T.n_cols))
    return column_lower_bound(T, CriterionRequest(beta=beta, delta=ones, space=space))


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
        T = build_matrix(None, PolynomialSymbol.monomial(3), ones, 12, 4)
        for big_l in range(5):
            assert dense_column(T, big_l) == [1 if n == 3 * big_l else 0 for n in range(13)]

    def test_substitution_monomial_pattern(self):
        u = TruncatedSeries.monomial(1)
        T = build_matrix(u, PolynomialSymbol.monomial(2), ones, 9, 4)
        for big_l in range(5):
            assert dense_column(T, big_l) == [1 if n == 1 + 2 * big_l else 0 for n in range(10)]

    def test_diamond_mult_unity_is_identity(self):
        u = TruncatedSeries.unity(0)
        T = build_matrix(u, None, make_delta("factorial"), 5, 5)
        for big_l in range(6):
            assert dense_column(T, big_l) == [1 if n == big_l else 0 for n in range(6)]

    def test_composition_general_matches_powers(self):
        phi = PolynomialSymbol.from_coeffs([0, 1, 1])
        T = build_matrix(None, phi, ones, 8, 3)
        base = TruncatedSeries.from_coeffs([0, 1, 1], degree_bound=8)
        acc = TruncatedSeries.unity(8)
        from fpsop.series import cauchy_product
        for big_l in range(4):
            assert dense_column(T, big_l) == list(acc.coeffs)
            acc = cauchy_product(acc, base, 8)

    def test_substitution_reads_each_kernel_once(self, monkeypatch):
        """A non-monomial ``phi`` puts row ``j + k`` in many columns; each
        ``(row, k)`` kernel is computed once per build."""
        delta = make_delta("inverse-factorial")
        calls = []
        kernel = type(delta).kernel
        monkeypatch.setattr(type(delta), "kernel",
                            lambda self, n, k: calls.append((n, k)) or kernel(self, n, k))
        u = TruncatedSeries.from_coeffs([1, Fraction(1, 2), Fraction(1, 3)])
        T = build_matrix(u, PolynomialSymbol.from_coeffs([0, 1, 1]), delta, 12, 6)
        assert T.nnz > 0
        assert len(calls) == len(set(calls)) > 0

    def test_clipping_warns(self):
        T = build_matrix(None, PolynomialSymbol.monomial(2), ones, 4, 4)
        assert any("clipped" in w for w in T.warnings)

    def test_missing_symbol_rejected(self):
        with pytest.raises(ValidationError):
            build_matrix(None, None, ones, 4, 4)

    @pytest.mark.parametrize("u, phi, delta", [
        (None, [0.0, 1.0], ones),
        (None, [0.0, 0.0, 1.0], ones),
        (None, [0.5], ones),
        (None, [0.25, 0.5, 0.25], ones),
        ([1.0, -0.5, 0.0, 2.0], [0.0, 0.75], make_delta("factorial")),
        ([0.5, 1.5], [0.0, 1.0], make_delta("inverse-factorial")),
        ([1.0, 0.25, 0.0, 3.0], None, make_delta("factorial")),
        ([0.5, 0.0, 1.0], None, make_delta([1, Fraction(2, 3), Fraction(9, 4), 5, 7, 11, 13])),
    ])
    def test_float_entries_are_floats(self, u, phi, delta):
        """Every entry of a float matrix is a plain float as built: a float
        unit monomial's powers are 1.0, and a float ``u`` coefficient times an
        exact kernel (an int or a Fraction) is a float."""
        u = None if u is None else TruncatedSeries(tuple(u))
        phi = None if phi is None else PolynomialSymbol(tuple(phi))
        T = build_matrix(u, phi, delta, 6, 6)
        assert T.mode == "float"
        assert T.nnz > 0
        assert all(type(v) is float for col in T.columns for _, v in col)


# (kind, u coefficients, phi coefficients): constant symbols, multipliers with
# trailing zeros, and float ones.
_COVERING_CASES = [
    ("composition", None, [0, Fraction(1, 2), Fraction(1, 2)]),
    ("composition", None, [0, 0, 0, 1]),
    ("composition", None, [Fraction(2, 3)]),
    ("composition", None, [0]),
    ("composition", None, [0.125, 0.5]),
    ("diamond-mult", [1, Fraction(1, 2), 0, 0], None),
    ("diamond-mult", [0, 0, 3], None),
    ("diamond-mult", [1.0, 0.25, 0.0], None),
    ("substitution", [0, 2, 0], [0, Fraction(1, 2), Fraction(1, 2)]),
    ("substitution", [Fraction(1, 3), 0, 1, 0], [Fraction(2, 3)]),
    ("substitution", [1, 0, 0], [0, 0, 1]),
    ("substitution", [1.0, 0.25, 0.0], [0.0, 0.625, 0.25]),
]


class TestCoveringRows:
    """``covering_rows`` is the highest nonzero row of the full images."""

    @pytest.mark.parametrize("kind, u, phi", _COVERING_CASES)
    @pytest.mark.parametrize("n_cols", [0, 1, 7])
    @pytest.mark.parametrize("delta", ["ones", "factorial"])
    def test_is_the_highest_nonzero_row(self, kind, u, phi, n_cols, delta):
        u = None if u is None else TruncatedSeries.from_coeffs(u)
        phi = None if phi is None else PolynomialSymbol.from_coeffs(phi)
        rows = covering_rows(u, phi, n_cols)
        build = lambda n_rows: build_matrix(u, phi, make_delta(delta), n_rows, n_cols)
        assert rows == max(r for col in build(rows + 5).columns for r, v in col if v != 0)
        assert build(rows).warnings == ()
        if rows:
            assert "columns clipped" in build(rows - 1).warnings[0]

    @pytest.mark.parametrize("kind, u, phi", _COVERING_CASES)
    def test_kind_follows_from_the_operands(self, kind, u, phi):
        u = None if u is None else TruncatedSeries.from_coeffs(u)
        phi = None if phi is None else PolynomialSymbol.from_coeffs(phi)
        assert build_matrix(u, phi, ones, 8, 3).kind == kind

    @pytest.mark.parametrize("kind, u, phi", _COVERING_CASES)
    def test_estimate_matrix_is_not_clipped(self, kind, u, phi):
        config = {"truncation": {"degree": 7, "tail_window": 2}}
        for key, coeffs in (("u", u), ("phi", phi)):
            if coeffs is not None:
                config[key] = {"coeffs": [str(c) if isinstance(c, Fraction) else c
                                          for c in coeffs]}
        report = run("estimate", parse_config(json.dumps(config)))
        assert not any("columns clipped" in w for w in report["warnings"])


class TestApply:
    def test_columns_are_basis_images(self):
        phi = PolynomialSymbol.from_coeffs([0, 2, 1])
        T = build_matrix(None, phi, ones, 10, 4)
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
            T = build_matrix(u, phi, delta, n_rows, n_cols)
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
            T = build_matrix(u, None, delta, 12, f.degree_bound)
            assert apply(T, f).coeffs == diamond_product(u, f, delta, 12).coeffs

    def test_wide_input_rejected(self):
        T = identity_matrix(3)
        with pytest.raises(ValidationError):
            apply(T, TruncatedSeries.from_coeffs([1, 0, 0, 0, 1]))


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
            T = build_matrix(None, PolynomialSymbol.monomial(m),
                             ones, 3 * 64, 64)
            cert = norm_estimate_l2(T, make_beta("hardy"))
            assert cert.value == pytest.approx(1.0, abs=1e-9)

    def test_dirichlet_squares_approach_root_two(self):
        beta = make_beta("dirichlet")
        last = 0.0
        for n_cols in (64, 256, 1024, 2048):
            T = build_matrix(None, PolynomialSymbol.monomial(2),
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
            T = build_matrix(u, None, make_delta("ones"), 20, 14)
            dense = csr_toarray(T.scaled_array(beta))
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
    return np.linalg.svd(csr_toarray(T.scaled_array(beta)), compute_uv=False)[0]


class TestLoneColumnSplit:
    def test_all_lone_is_largest_column_norm(self):
        beta = make_beta("dirichlet")
        T = build_matrix(None, PolynomialSymbol.monomial(3),
                         ones, 3 * 300, 300)
        cert = norm_estimate_l2(T, beta)
        want = float(np.abs(csr_toarray(T.scaled_array(beta))).max())
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
        T = build_matrix(u, None, ones, 24, 20)
        cert = norm_estimate_l2(T, beta)
        sigma, iterations, converged, delta, _ = _power_top(
            finite_scaled_reference(T, beta), _L2_ITERATIONS, _L2_TOL)
        assert cert.value == sigma
        assert cert.converged == converged and cert.tail_delta == delta
        assert f"iterations={iterations}" in cert.notes
        assert not any("lone" in note for note in cert.notes)

    def test_entries_near_float_range_are_scaled_by_a_power_of_two(self):
        # the scaling is exact, so the run on 2**400 * A with tolerance
        # 2**400 * tol is the run on A, scaled
        beta = make_beta("bergman")
        u = TruncatedSeries.from_coeffs([1.0, -0.5, 0.25, 2.0])
        A = finite_scaled_reference(build_matrix(u, None, ones, 24, 20), beta)
        small = _power_top(A, 50_000, 1e-12)
        big = _power_top(A * 2.0 ** 400, 50_000, math.ldexp(1e-12, 400))
        assert big[0] == math.ldexp(small[0], 400)
        assert big[1:3] == small[1:3]
        assert big[3] == math.ldexp(small[3], 400)

    @pytest.mark.parametrize("exp2", [1, 40, 900])
    def test_entries_below_one_half_are_scaled_up_without_the_tolerance(self, exp2):
        # The stop rule acts on the matrix scaled into [1/2, 1), so a small
        # matrix takes the same run as its scaled copy, scaled down.
        beta = make_beta("bergman")
        u = TruncatedSeries.from_coeffs([1.0, -0.5, 0.25, 2.0])
        A = finite_scaled_reference(build_matrix(u, None, ones, 24, 20), beta)
        A = A * math.ldexp(1.0, -math.frexp(float(np.abs(A.data).max()))[1])
        unit = _power_top(A, 50_000, 1e-12)
        small = _power_top(A * math.ldexp(1.0, -exp2), 50_000, 1e-12)
        assert small[0] == math.ldexp(unit[0], -exp2)
        assert small[1:3] == unit[1:3]
        assert small[3] == math.ldexp(unit[3], -exp2)

    def test_a_tiny_norm_is_not_settled_by_the_absolute_tolerance(self):
        """With the power law -150 every scaled entry is below 1e-14; the
        tolerance 1e-12 stopped the iteration after 6 steps at 1.0225e-15,
        below the column lower bound 1.0745e-15."""
        report = run("estimate", parse_config(json.dumps({
            "p": 2, "beta": {"power": -150.0},
            "delta": {"preset": "geometric", "ratio": "1/2"},
            "truncation": {"degree": 18, "tail_window": 4},
            "u": {"monomial": 3}, "phi": {"coeffs": [0, "1/2", "1/2"]}})))
        column = next(c for c in report["certificates"] if c["name"] == "monomial-column-lower")
        assert report["oracle"]["converged"]
        assert report["oracle"]["estimate"] >= column["value"] > 0.0


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.integers(1, 6),
       st.lists(st.lists(st.integers(-8, 8).filter(bool), min_size=1, max_size=2),
                max_size=5),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_lone_and_coupled_mix_matches_dense_svd(u_coeffs, block_cols, lone_cols, rnd):
    u = TruncatedSeries.from_coeffs([Fraction(c, 2) for c in u_coeffs]).to_float()
    block = build_matrix(u, None, ones,
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
            T = build_matrix(u, None, ones, 26, 19)
            l2 = norm_estimate_l2(T, beta)
            search = norm_lower_search(T, beta, 2, seed=trial)
            assert search.value == pytest.approx(l2.value, rel=1e-6)

    def test_never_below_column_bound(self):
        rng = np.random.default_rng(3)
        beta = make_beta("dirichlet")
        for p in (1, 2, Fraction(3, 2), 4):
            coeffs = [float(x) for x in rng.normal(size=5)]
            u = TruncatedSeries.from_coeffs(coeffs)
            T = build_matrix(u, None, ones, 14, 9)
            col = column_lower(T, beta, p)
            search = norm_lower_search(T, beta, p, seed=0)
            assert search.value >= col.value - 1e-12

    def test_deterministic_for_fixed_seed(self):
        u = TruncatedSeries.from_coeffs([1.0, -0.5, 0.25, 2.0])
        T = build_matrix(u, None, ones, 12, 8)
        beta = make_beta("bergman")
        a = norm_lower_search(T, beta, Fraction(5, 2), seed=7)
        b = norm_lower_search(T, beta, Fraction(5, 2), seed=7)
        assert a.value == b.value

    @pytest.mark.parametrize("p", [1, Fraction(3, 2), Fraction(5, 2), 3])
    @pytest.mark.parametrize("shift,m", [(None, 2), (None, 3), (2, 2), (1, 3)])
    def test_all_lone_is_largest_column_norm(self, p, shift, m):
        """``C_{z^m}`` and ``z^s C_{z^m}`` map each monomial to one monomial,
        so no row is shared and the largest column norm is the norm."""
        beta = make_beta("dirichlet")
        n = 40
        u = None if shift is None else TruncatedSeries.monomial(shift)
        T = build_matrix(u, PolynomialSymbol.monomial(m), ones, m * n + (shift or 0), n)
        cert = norm_lower_search(T, beta, p, seed=5)
        assert _evaluations(cert) == 0
        assert cert.converged and cert.tail_delta == 0.0
        assert cert.value == pytest.approx(_max_column_pnorm(T, beta, p), rel=1e-15, abs=0.0)
        # Each column holds one entry, which is its norm, exactly.
        assert cert.value == float(np.abs(finite_scaled_reference(T, beta).data).max())
        # The column lower rounds the p-th root of a p-th power of the weight
        # and can read an ulp above the entry (at p = 5/2 here).
        assert cert.value >= column_lower(T, beta, p).value * (1 - 1e-15)

    def test_p1_is_the_largest_column_sum_of_a_coupled_matrix(self):
        beta = make_beta("bergman")
        u = TruncatedSeries.from_coeffs([1.0, -0.5, 0.25, 2.0])
        T = build_matrix(u, None, make_delta("factorial"), 23, 20)
        cert = norm_lower_search(T, beta, 1)
        assert cert.value == _max_column_pnorm(T, beta, 1)
        assert _evaluations(cert) == 0 and cert.converged

    def test_all_coupled_search_is_unchanged(self):
        """An E08-shaped request of the benchmark: every column is coupled, so
        the whole matrix is searched; its bits and its budget are pinned."""
        u = TruncatedSeries.from_coeffs([1, Fraction(-1, 2), Fraction(1, 4)])
        T = build_matrix(u, None, make_delta("geometric", Fraction(1, 2)), 50, 48)
        cert = norm_lower_search(T, make_beta("hardy"), 3, seed=123)
        assert cert.value.hex() == "0x1.bf91de690590cp+0"
        assert _evaluations(cert) == 600 and not cert.converged


def _evaluations(cert):
    return next(int(n.split("=")[1]) for n in cert.notes if n.startswith("evaluations="))


def _max_column_pnorm(T, beta, p):
    """The largest column p-norm of the scaled matrix, by a plain loop."""
    data, _, cols = scaled_array_reference(T, beta)
    sums = [0.0] * (T.n_cols + 1)
    for value, L in zip(data, cols):
        sums[L] += abs(value) ** float(p)
    return max(total ** (1.0 / float(p)) for total in sums)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.integers(1, 6),
       st.lists(st.lists(st.integers(-8, 8).filter(bool), min_size=1, max_size=2),
                max_size=5),
       st.sampled_from([Fraction(3, 2), 3]),
       st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_search_of_a_lone_and_coupled_mix(u_coeffs, block_cols, lone_cols, p, rnd):
    """The search of a shuffled mix is the larger of its lone columns and the
    search of its block columns alone, in the same order and rows."""
    u = TruncatedSeries.from_coeffs([Fraction(c, 2) for c in u_coeffs]).to_float()
    block = build_matrix(u, None, ones,
                         block_cols + len(u_coeffs) - 1, block_cols)
    row = block.n_rows + 1
    lone = []
    for values in lone_cols:
        lone.append(tuple((row + i, v / 4) for i, v in enumerate(values)))
        row += len(values)
    columns = list(block.columns) + lone
    rnd.shuffle(columns)
    beta = make_beta("hardy")
    cert = norm_lower_search(float_matrix(columns, n_rows=row), beta, p, seed=3)
    alone = norm_lower_search(float_matrix([c for c in columns if c not in lone], n_rows=row),
                              beta, p, seed=3)
    lone_best = _max_column_pnorm(float_matrix(lone + [()], n_rows=row), beta, p)
    assert cert.value == pytest.approx(max(lone_best, alone.value), rel=1e-15, abs=0.0)
    assert _evaluations(cert) == _evaluations(alone)


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_substitution_monomial_columns(m1, m2):
    u = TruncatedSeries.monomial(m1)
    T = build_matrix(u, PolynomialSymbol.monomial(m2), ones,
                     m1 + 5 * m2, 5)
    for big_l in range(6):
        col = dense_column(T, big_l)
        assert col[m1 + big_l * m2] == 1
        assert sum(1 for c in col if c != 0) == 1


def _csr_bits(A):
    return A.shape, A.indptr.tolist(), A.indices.tolist(), A.data.tobytes()


# Float matrix entries: explicit zeros, signs, a subnormal and entries whose
# products with the weights can reach float range.
_ENTRIES = (0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, 1e200, -1e200)


@st.composite
def _matrices_and_weights(draw):
    """Exact and float matrices of every kind, and weights of every family,
    short lists among them."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["composition", "diamond-mult", "substitution", "entries"]))
    # Fewer rows than the images need leave clipped and empty columns.
    n_rows = draw(st.integers(0, 2 * n + 2))
    if kind == "entries":
        T = float_matrix([tuple(sorted(draw(st.dictionaries(
            st.integers(0, n_rows), st.sampled_from(_ENTRIES), max_size=4)).items()))
            for _ in range(n + 1)], n_rows=n_rows)
    else:
        mode = draw(st.sampled_from(["exact", "float"]))
        u = TruncatedSeries.from_coeffs(
            [1.0, -0.5, 0.25] if mode == "float" else [1, Fraction(-1, 3), 2])
        phi = PolynomialSymbol.from_coeffs(draw(st.sampled_from(
            [[0.0, 0.0, 1.0], [0.0, 0.5, 0.5]] if mode == "float"
            else [[0, 0, 1], [0, Fraction(1, 2), 3]])))
        delta = draw(st.sampled_from([ones, make_delta("factorial")]))
        T = build_matrix(None if kind == "composition" else u,
                         None if kind == "diamond-mult" else phi, delta, n_rows, n)
    family = draw(st.sampled_from(["bergman", "dirichlet", "hardy", -150.0, 150.0, "list",
                                   "floats"]))
    if family == "list":
        beta = make_beta([Fraction(1, k + 2) for k in range(draw(st.integers(1, 2 * n + 3)))])
    elif family == "floats":
        beta = WeightSequence(_explicit_fn(
            tuple(1.0 / (k + 2) for k in range(draw(st.integers(1, 2 * n + 3)))), "beta"))
    else:
        beta = make_beta(family)
    return T, beta


def _scipy_reference(T, beta):
    """scipy's CSR matrix of ``scaled_array_reference``'s entries."""
    import scipy.sparse as sp

    data, rows, cols = scaled_array_reference(T, beta)
    return sp.csr_matrix((data, (rows, cols)), shape=T.shape, dtype=np.float64)


class TestScaledArrayMatchesLoopReference:
    @given(_matrices_and_weights())
    @settings(max_examples=200, deadline=None)
    def test_bits_and_errors_match(self, case):
        T, beta = case
        outcomes = []
        for build in (lambda: T.scaled_array(beta), lambda: _scipy_reference(T, beta)):
            try:
                outcomes.append(_csr_bits(build()))
            except ValidationError as exc:
                outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]


class TestCSRKernelMatchesScipy:
    """Every operation the oracles ask of the CSR kernel gives scipy.sparse's
    bits on the same entries."""

    @given(_matrices_and_weights(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.integers(-1074, 1023))
    @settings(max_examples=200, deadline=None)
    def test_operations_match_bit_for_bit(self, case, seed, pf, exp2):
        T, beta = case
        try:
            A = finite_scaled_reference(T, beta)
        except ValidationError:
            return
        ref = _scipy_reference(T, beta)
        rng = np.random.default_rng(seed)
        # Vectors in [-1, 1] with zeros of both signs among their entries.
        x = rng.uniform(-1.0, 1.0, A.shape[1]) * (rng.random(A.shape[1]) < 0.8)
        y = rng.uniform(-1.0, 1.0, A.shape[0]) * (rng.random(A.shape[0]) < 0.8)
        keep = rng.random(A.shape[1]) < 0.5
        assert (A @ x).tobytes() == (ref @ x).tobytes()
        assert A.rmatvec(y).tobytes() == (ref.T @ y).tobytes()
        assert A.rmatvec(y).tobytes() == (ref.T.tocsr() @ y).tobytes()
        assert _csr_bits(A.take_columns(keep)) == _csr_bits(ref[:, np.flatnonzero(keep)])
        assert csr_toarray(A).tobytes() == ref.toarray().tobytes()
        csc = ref.tocsc()
        with np.errstate(over="ignore"):
            powers = np.abs(csc.data) ** pf
            want = [float(np.sum(powers[a:b])) for a, b in zip(csc.indptr[:-1], csc.indptr[1:])]
            assert ([s.hex() for s in A.column_power_sums(pf)]
                    == [s.hex() for s in want])
            scale = math.ldexp(1.0, exp2)
            assert _csr_bits(A * scale) == _csr_bits(ref * scale)


@given(st.lists(st.one_of(st.floats(-1e100, 1e100), st.just(0.0)), min_size=1, max_size=30),
       st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]))
def test_pnorm_bits_match_the_reference(values, pf):
    x = np.array(values)
    assert _pnorm(x, pf).hex() == pnorm_reference(x, pf).hex()
    assert x.tolist() == values


class TestSearchScalesLargeEntries:
    def test_powers_beyond_float_range_give_a_finite_estimate(self):
        """The constant symbol maps ``z**L`` to 1: with the power law -150 the
        scaled entries reach ``41**150``, about 1e242, whose cubes overflow.
        Unscaled, numpy warned and the search reported ``inf`` as converged
        (pytest turns the warnings into errors)."""
        T = build_matrix(None, PolynomialSymbol.monomial(0), ones, 40, 40)
        beta = make_beta(-150.0)
        col = column_lower(T, beta, 3)
        cert = norm_lower_search(T, beta, 3)
        assert math.isfinite(cert.value)
        assert col.value <= cert.value <= col.value * 41 ** (2 / 3)


# The l2 estimate, and the search at each p.
_ROUTES = ("l2", 1, 2, Fraction(3, 2), Fraction(5, 2), 3)
# numpy's ``**`` and libm's ``pow`` can differ by an ulp in the powers and the
# root: 4 of the 6,689 lone columns of the p != 1, 2 census estimates
# (tests/configgen.py, seeds 1, 11 and 12) read so.
_ULP_ROUTES = (Fraction(3, 2), Fraction(5, 2), 3)


def _oracle(T, beta, p):
    return norm_estimate_l2(T, beta) if p == "l2" else norm_lower_search(T, beta, p)


def _numpy_lone_route(T, beta, p):
    """``_oracle`` of a matrix of lone columns as the numpy route took it, with
    the front's rule for a norm past float range: the reference for the
    plain-float front."""
    A = finite_scaled_reference(T, beta)
    if p == "l2":
        with np.errstate(over="ignore"):  # a column norm past float range reads inf
            value = float(lone_norms_reference(A, 2.0).max())
        notes = ("iterations=0", f"{A.shape[1]} lone columns taken exactly")
    else:
        # The search scaled a matrix near float range by a power of two.
        pf, top = float(p), float(np.abs(A.data).max(initial=0.0))
        worst = max(pf, pf / (pf - 1.0)) if pf > 1.0 else 1.0
        exp2 = math.frexp(top)[1] if top * A.nnz > 2.0 ** (1000 / worst) else 0
        value = float(lone_norms_reference(A * math.ldexp(1.0, -exp2), pf).max())
        # math.ldexp raises past float range, where numpy read inf.
        value = math.inf if math.frexp(value)[1] + exp2 > 1024 else math.ldexp(value, exp2)
        notes = ("largest column norm", "evaluations=0")
    return BoundCertificate(min(value, sys.float_info.max), "lower", None, T.n_cols, 0.0, True,
                            notes)


def _lone(T):
    rows = [row for col in T.columns for row, _ in col]
    return len(set(rows)) == len(rows)


def _outcome(route, T, beta, p):
    try:
        cert = route(T, beta, p)
    except ValidationError as exc:
        return "error", str(exc)
    return cert.value, cert.notes, cert.converged, cert.tail_delta.hex()


def _bits(outcome):
    return outcome if outcome[0] == "error" else (outcome[0].hex(),) + outcome[1:]


def _assert_routes_agree(T, beta):
    assert _lone(T)
    for p in _ROUTES:
        got, want = _outcome(_oracle, T, beta, p), _outcome(_numpy_lone_route, T, beta, p)
        if p in _ULP_ROUTES and isinstance(got[0], float) and isinstance(want[0], float):
            assert abs(got[0] - want[0]) <= 2 * math.ulp(want[0]), (p, got, want)
            got = want[:1] + got[1:]
        assert (p, _bits(got)) == (p, _bits(want))


def _exact_matrix(columns):
    T = float_matrix(columns)
    return OperatorMatrix(T.kind, T.n_rows, T.n_cols, T.columns, "exact")


_POW_ROUNDED = 0.923854799557242  # x ** 2.0 != x * x under glibc's pow
_BETAS = ("hardy", "dirichlet", "bergman", 0.4, -150.0)


class TestPlainFloatLoneRouteMatchesNumpy:
    """Every report of an all-lone oracle keeps the numpy route's bits, up to
    2 ulps of ``pow`` at p = 3/2, 5/2 and 3."""

    @pytest.mark.parametrize("beta", _BETAS)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_monomial_compositions(self, m, beta):
        T = build_matrix(None, PolynomialSymbol.monomial(m), ones, m * 40, 40)
        _assert_routes_agree(T, make_beta(beta))

    @pytest.mark.parametrize("delta", [ones, make_delta("factorial"),
                                       make_delta("inverse-factorial"),
                                       make_delta("geometric", Fraction(1, 3))])
    @pytest.mark.parametrize("shift,stride", [(1, 1), (2, 3), (0, 2)])
    def test_monomial_substitutions(self, shift, stride, delta):
        u, phi = TruncatedSeries.monomial(shift), PolynomialSymbol.monomial(stride)
        T = build_matrix(u, phi, delta, covering_rows(u, phi, 30), 30)
        for beta in _BETAS:
            _assert_routes_agree(T, make_beta(beta))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("coeffs,stride", [
        ([1, Fraction(1, 2)], 3), ([1, Fraction(1, 2), Fraction(1, 5)], 3),
        ([0, 3, Fraction(-7, 4), Fraction(2, 9)], 5),
    ])
    def test_multi_entry_lone_columns(self, coeffs, stride, mode):
        """``u = 1 + z/2`` with ``phi = z**3``: each column holds ``u``'s
        terms on rows no other column reaches."""
        u, phi = TruncatedSeries.from_coeffs(coeffs), PolynomialSymbol.monomial(stride)
        if mode == "float":
            u, phi = u.to_float(), PolynomialSymbol.from_coeffs(map(float, phi.alphas))
        for delta in (ones, make_delta("factorial"), make_delta("inverse-factorial")):
            T = build_matrix(u, phi, delta, covering_rows(u, phi, 24), 24)
            assert any(len(col) > 1 for col in T.columns)
            for beta in _BETAS:
                _assert_routes_agree(T, make_beta(beta))

    @pytest.mark.parametrize("columns", [
        [(), (), ()],
        [(), ((1, 0.0),), ((2, 3.0), (3, 0.0)), ()],
        [((0, -0.0), (1, 0.0)), ((2, -2.0),)],
        # subnormal, near 1e300 and past float range after the root
        [((0, 5e-324),), ((1, 1e-310), (2, 5e-324), (3, -5e-324)), ((4, 4e-320),)],
        [((0, 1e300), (1, -1.5e300), (2, 1e299)), ((3, 7e299),)],
        # rows out of order: the squares still add up by row
        [((5, 0.3), (2, 1.0), (3, 0.7)), ((0, 0.1), (4, 0.2), (1, 1e-3))],
        # an entry whose ``** 2.0`` and ``* itself`` differ, and ones where
        # the difference reaches the norm
        [((0, 1.0), (1, _POW_ROUNDED))],
        [((0, 1.0), (1, 0.633541589146366))],
        [((0, 3.0), (1, 0.9986569026569787 * 3.0))],
        # squares a compensated sum keeps and a left-to-right one drops
        [((0, 1.0),) + tuple((k, 1e-8) for k in range(1, 5))],
        # the same stored in reverse: in storage order they add up
        [tuple((k, 1e-8) for k in range(4, 0, -1)) + ((0, 1.0),)],
    ])
    @pytest.mark.parametrize("beta", ["hardy", "bergman", -150.0])
    def test_float_entries(self, columns, beta):
        _assert_routes_agree(float_matrix(columns), make_beta(beta))

    @pytest.mark.parametrize("beta", ["hardy", "bergman"])
    def test_a_norm_past_float_range_reads_the_largest_float(self, beta):
        """The column's norm passes float range at every p: a lower of
        ``sys.float_info.max`` is sound where ``inf`` is not."""
        T = float_matrix([((0, 1.7e308), (1, -1.7e308))])
        beta = make_beta(beta)
        for cert in (norm_estimate_l2(T, beta), norm_lower_search(T, beta, 3),
                     norm_lower_search(T, beta, 1)):
            assert cert.value == sys.float_info.max and cert.converged
        _assert_routes_agree(T, beta)

    def test_a_coupled_norm_past_float_range_reads_the_largest_float(self):
        """Both columns hold rows 0 and 1, so the block is coupled, and its
        norm, about ``sqrt(2) * 1.7e308``, passes float range: both oracles
        scale their result back to ``sys.float_info.max``, as the lone
        columns do, instead of raising from ``math.ldexp``."""
        T = float_matrix([((0, 1.7e308), (1, 1.0)), ((0, 1.7e308), (1, -1.0))])
        beta = make_beta("hardy")
        for cert in (norm_estimate_l2(T, beta), norm_lower_search(T, beta, 3)):
            assert cert.value == sys.float_info.max

    @pytest.mark.parametrize("columns", [
        [((0, 1),), ((1, Fraction(1, 3)), (2, Fraction(-5, 7))), ()],
        [((0, Fraction(10 ** 300, 3)),), ((1, Fraction(1, 10 ** 310)), (2, 1))],
        [((0, 10 ** 400),), ((1, 1),)],  # beyond float range: non-finite
    ])
    def test_exact_entries(self, columns):
        for beta in ("hardy", "dirichlet", -150.0):
            _assert_routes_agree(_exact_matrix(columns), make_beta(beta))

    def test_non_finite_entries_fail_with_the_same_text(self):
        T = float_matrix([((0, 1.0),), ((1, 2.0), (2, 1.0))])
        beta = WeightSequence(_explicit_fn((1.0, 1e-300, 1e300), "beta"))
        for p in _ROUTES:
            assert _outcome(_oracle, T, beta, p) == (
                "error", "operator has non-finite scaled entries")
        _assert_routes_agree(T, beta)

    @pytest.mark.parametrize("length", range(1, 12))
    def test_short_weight_lists_fail_at_the_same_index(self, length):
        """Column ``L`` reads ``w(L)`` before its rows, even when empty."""
        u, phi = TruncatedSeries.from_coeffs([1, Fraction(1, 2)]), PolynomialSymbol.monomial(3)
        T = build_matrix(u, phi, ones, 7, 3)
        beta = make_beta([Fraction(1, k + 1) for k in range(length)])
        _assert_routes_agree(T, beta)
        _assert_routes_agree(float_matrix([(), ((5, 1.0),), (), ((9, 2.0),)]), beta)

    @given(_matrices_and_weights())
    @settings(max_examples=200, deadline=None)
    def test_generated_lone_matrices(self, case):
        T, beta = case
        if _lone(T):
            _assert_routes_agree(T, beta)

    @given(st.lists(st.lists(st.sampled_from(_ENTRIES + (_POW_ROUNDED, 1e-8, -3.75)),
                             max_size=5), min_size=1, max_size=12),
           st.randoms(use_true_random=False),
           st.sampled_from(["hardy", "dirichlet", "bergman", -150.0, 150.0]))
    @settings(max_examples=200, deadline=None)
    def test_random_lone_columns(self, values, rnd, beta):
        rows = list(range(sum(map(len, values))))
        rnd.shuffle(rows)
        columns, it = [], iter(rows)
        for col in values:
            columns.append(tuple((next(it), v) for v in col))
        _assert_routes_agree(float_matrix(columns), make_beta(beta))


class TestLoneFront:
    def test_coupled_columns_share_a_row_above_p_one(self):
        # Columns 0 and 2 share row 1, through an explicit zero; column 3
        # holds row 4 twice.
        T = float_matrix([((0, 1.0), (1, 0.0)), ((2, 5.0),), ((1, 9.0),), ((4, 2.0), (4, 1.0)),
                          ()])
        beta = make_beta("hardy")
        data, coupled, lone = operators._lone_front(T, beta, 2.0)
        assert data == scaled_array_reference(T, beta)[0]
        assert coupled == [True, False, True, True, False]
        assert lone == 5.0
        data, coupled, lone = operators._lone_front(T, beta, 1.0)
        assert coupled == [False] * 5 and lone == 9.0

    def test_p1_adds_a_row_held_twice_in_storage_order(self):
        T = float_matrix([((1, 1.0), (0, 2.0 ** -53), (1, 2.0 ** -53))])
        beta = make_beta("hardy")
        want = float(lone_norms_reference(finite_scaled_reference(T, beta), 1.0).max())
        assert operators._lone_front(T, beta, 1.0)[2] == want == 1.0

    def test_one_entry_columns_leave_the_coupled_ones_out(self):
        T = float_matrix([((0, 3.0),), ((0, -4.0),), ((1, 2.0),)])
        for pf in (1.5, 2.0, 3.0):
            assert operators._lone_front(T, make_beta("hardy"), pf)[1:] == (
                [True, True, False], 2.0)


class TestLoneRouteSkipsTheScaledArray:
    """Only a coupled column at p > 1 builds the numpy matrix."""

    @pytest.fixture(autouse=True)
    def refuse_csr(self, monkeypatch):
        def refuse(T, data):
            raise RuntimeError("_CSR was built")

        monkeypatch.setattr(operators, "_csr", refuse)

    @pytest.mark.parametrize("p", [1, Fraction(3, 2), 2, Fraction(5, 2), 3])
    def test_lone_columns_never_build_it(self, p):
        beta = make_beta("dirichlet")
        u = TruncatedSeries.from_coeffs([1, Fraction(1, 2)])
        for T in (build_matrix(u, PolynomialSymbol.monomial(3), ones, 3 * 20 + 1, 20),
                  build_matrix(None, PolynomialSymbol.monomial(2), ones, 2 * 20, 20)):
            assert norm_lower_search(T, beta, p).notes == ("largest column norm",
                                                          "evaluations=0")
            if p == 2:
                assert norm_estimate_l2(T, beta).notes == ("iterations=0",
                                                           "21 lone columns taken exactly")

    def test_coupled_columns_build_it_only_above_p_one(self):
        beta = make_beta("dirichlet")
        coupled = build_matrix(TruncatedSeries.from_coeffs([1, Fraction(1, 2)]), None, ones,
                               21, 20)
        assert _evaluations(norm_lower_search(coupled, beta, 1)) == 0
        for oracle in (norm_estimate_l2, lambda T, beta: norm_lower_search(T, beta, 3)):
            with pytest.raises(RuntimeError, match="_CSR was built"):
                oracle(coupled, beta)
