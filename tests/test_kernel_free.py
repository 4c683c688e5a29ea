"""The kernel-free path: a ``ones`` or ``geometric`` delta (``d(n) = r**n``),
whose kernels are all exactly 1, is not read, and gives what the general path
gives on the same values as an explicit ``values`` list."""

from fractions import Fraction

import pytest

from fpsop.criteria import (
    CriterionRequest,
    multiplier_algebra_bound,
    substitution_bounds_monomial_multiplier,
    substitution_bounds_monomial_pair,
    substitution_bounds_monomial_symbol,
)
from fpsop.operators import build_matrix
from fpsop.series import PolynomialSymbol, TruncatedSeries, diamond_product
from fpsop.weights import DeltaSequence, SpaceConfig, ValidationError, make_beta, make_delta

N = 20
STRIDES = (1, 2)
SHIFTS = (0, 3)
# The largest index any request below reads: shift + stride * N in cor26.
TOP = max(SHIFTS) + max(STRIDES) * N

DELTAS = [("ones", None), ("geometric", Fraction(1, 2)), ("geometric", Fraction(2, 3)),
          ("geometric", 3)]
BETAS = ["bergman", "dirichlet", 0.35, "hardy", "list"]
EXPONENTS = [1, Fraction(3, 2), 2, 3]


def preset_and_list(name, ratio):
    """The preset, and its values as an explicit list (the general path)."""
    preset = make_delta(name, ratio=ratio)
    listed = make_delta([preset.value(n) for n in range(TOP + 1)])
    assert preset.kernel_free and not listed.kernel_free
    return preset, listed


def beta_of(spec):
    if spec == "list":  # exact, and not a power of one ratio
        return make_beta([Fraction(n + 2, 2 * n + 3) for n in range(TOP + 1)])
    return make_beta(spec)


def request(beta, delta, p, u=None, phi=None):
    space = SpaceConfig(p=p, truncation_degree=N, tail_window=5, tolerance=1e-7)
    return CriterionRequest(beta=beta, delta=delta, space=space, u=u, phi=phi)


def operators_of(exact):
    """Multipliers ``u`` and polynomial symbols ``phi``, exact or float."""
    if exact:
        return ([TruncatedSeries((1, Fraction(-1, 2), Fraction(1, 3)))],
                [PolynomialSymbol((0, Fraction(1, 2), Fraction(1, 3)))])
    return ([TruncatedSeries((1.0, -0.5, 0.25))], [PolynomialSymbol((0.0, 0.5, 0.375))])


def certificates(beta, delta, p, exact):
    """Every evaluator that reads delta, at strides 1 and 2 and shifts 0 and 3."""
    us, phis = operators_of(exact)
    out = [multiplier_algebra_bound(request(beta, delta, p))]
    for stride in STRIDES:
        mono = PolynomialSymbol.monomial(stride)
        out += [substitution_bounds_monomial_symbol(request(beta, delta, p, u, mono))
                for u in us]
        out += [substitution_bounds_monomial_pair(
            request(beta, delta, p, TruncatedSeries.monomial(shift), mono))
            for shift in SHIFTS]
    out += [substitution_bounds_monomial_multiplier(
        request(beta, delta, p, TruncatedSeries.monomial(shift), phi))
        for shift in SHIFTS for phi in phis]
    return out


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("name, ratio", DELTAS)
def test_certificates_equal_the_general_path(name, ratio, beta, p):
    preset, listed = preset_and_list(name, ratio)
    weights = beta_of(beta)
    for exact in (True, False):
        assert certificates(weights, preset, p, exact) == certificates(weights, listed, p, exact)


def products(delta, exact):
    """Columns of ``u ◇ C_phi`` for every shape, and diamond products."""
    us, phis = operators_of(exact)
    phis.append(PolynomialSymbol((0, 0, 1) if exact else (0.0, 0.0, 1.0)))  # z**2
    f, g = us[0], TruncatedSeries(phis[0].alphas)
    # Degree 2 of flat ◇ cancel adds 1, 1e100 and -1e100: fsum gives 1, a running sum 0.
    flat, cancel = (TruncatedSeries((1, 1, 1) if exact else (1.0, 1.0, 1.0)),
                    TruncatedSeries((-10**100, 10**100, 1) if exact else (-1e100, 1e100, 1.0)))
    return [build_matrix(u, phi, delta, 2 * N + 2, N).columns
            for u in us + [None] for phi in phis + [None] if u is not None or phi is not None
            ] + [diamond_product(a, b, delta, N).coeffs
                 for a, b in [(a, b) for a in (f, g, f.pad(N)) for b in (f, g)] + [(flat, cancel)]]


@pytest.mark.parametrize("name, ratio", DELTAS)
@pytest.mark.parametrize("exact", [True, False])
def test_matrices_and_products_equal_the_general_path(name, ratio, exact):
    preset, listed = preset_and_list(name, ratio)
    got, want = products(preset, exact), products(listed, exact)
    assert got == want
    if not exact or name == "ones":  # the same bits and scalar kinds, signed zeros too
        assert repr(got) == repr(want)


@pytest.mark.parametrize("name, ratio", DELTAS)
def test_a_kernel_free_delta_is_never_read(name, ratio):
    delta = make_delta(name, ratio=ratio)

    def unread(n):
        raise AssertionError(f"delta read at {n}")

    delta.value = unread
    for beta in ("bergman", "list"):
        for p in (1, 3):
            for exact in (True, False):
                certificates(beta_of(beta), delta, p, exact)
    for exact in (True, False):
        products(delta, exact)
    assert delta.kernel(5, 2) == 1


@pytest.mark.parametrize("name, ratio", DELTAS)
def test_the_kernel_checks_its_index(name, ratio):
    delta = make_delta(name, ratio=ratio)
    for n, k in ((2, 3), (2, -1)):
        with pytest.raises(ValidationError, match="kernel index"):
            delta.kernel(n, k)


def test_only_the_r_to_the_n_presets_are_kernel_free():
    assert not make_delta("factorial").kernel_free
    assert not make_delta("inverse-factorial").kernel_free
    assert not make_delta([1, 1, 1]).kernel_free
    assert not DeltaSequence(lambda n: 1).kernel_free
    assert not DeltaSequence(lambda n: 1, label="ones").kernel_free
    delta = make_delta("ones")
    with pytest.raises(AttributeError):
        delta.kernel_free = False
