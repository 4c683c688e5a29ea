import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsop.weights import (
    DeltaSequence,
    SpaceConfig,
    ValidationError,
    conjugate_exponent,
    make_beta,
    make_delta,
)


class TestMakeBeta:
    def test_dirichlet_at_three(self):
        assert make_beta("dirichlet").value(3) == pytest.approx(2.0, abs=0)

    def test_hardy_is_one_everywhere(self):
        beta = make_beta("hardy")
        assert all(beta.value(n) == 1 for n in range(50))

    def test_bergman_values(self):
        beta = make_beta("bergman")
        assert beta.value(0) == 1.0
        assert beta.value(3) == pytest.approx(0.5)

    def test_power_law_exponent(self):
        beta = make_beta(Fraction(2))
        assert beta.value(2) == 9

    def test_explicit_list_warns_when_not_anchored(self):
        beta = make_beta([2, 1, 1])
        assert any("beta(0)" in w for w in beta.warnings)

    def test_explicit_list_exact(self):
        beta = make_beta([1, Fraction(1, 2), Fraction(1, 4)])
        assert beta.value(1) == Fraction(1, 2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            make_beta([1, 0, 1]).value(1)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            make_beta("lebesgue")

    def test_negative_index(self):
        with pytest.raises(ValidationError):
            make_beta("hardy").value(-1)


class TestMakeDelta:
    def test_factorial_at_two(self):
        assert make_delta("factorial").value(2) == 2

    def test_explicit_floats_accepted(self):
        delta = make_delta([1, 0.5, 0.25])
        assert delta.value(2) == Fraction(1, 4)

    def test_anchor_enforced(self):
        with pytest.raises(ValidationError, match="delta\\(0\\)"):
            make_delta([2, 1])

    def test_geometric_ratio(self):
        delta = make_delta("geometric", ratio=Fraction(1, 2))
        assert delta.value(3) == Fraction(1, 8)

    def test_inverse_factorial(self):
        assert make_delta("inverse-factorial").value(4) == Fraction(1, 24)

    def test_factorials_read_out_of_order(self):
        """The running product carries on from the largest index read, and
        an index below it, or one past the memo read twice, is still n!."""
        factorial = make_delta("factorial")
        inverse = make_delta("inverse-factorial")
        for n in (5, 3, 40, 0, 39, 4100, 4097, 4100, 4101, 12, 4099):
            assert factorial.value(n) == math.factorial(n)
            assert inverse.value(n) == Fraction(1, math.factorial(n))

    def test_kernel_binomial(self):
        delta = make_delta("factorial")
        assert delta.kernel(4, 1) == 4

    def test_kernel_inverse_binomial(self):
        delta = make_delta("inverse-factorial")
        assert delta.kernel(4, 1) == Fraction(1, 4)

    def test_kernel_index_bounds(self):
        with pytest.raises(ValidationError):
            make_delta("ones").kernel(2, 3)


class TestConjugateExponent:
    def test_self_conjugate(self):
        assert conjugate_exponent(2) == 2

    def test_one_maps_to_infinity(self):
        assert conjugate_exponent(1) == math.inf

    def test_four(self):
        assert conjugate_exponent(4) == Fraction(4, 3)

    def test_below_one_rejected(self):
        with pytest.raises(ValidationError, match=">= 1"):
            conjugate_exponent(0.5)

    @given(st.integers(2, 50))
    def test_holder_identity(self, p):
        q = conjugate_exponent(p)
        assert Fraction(1, p) + 1 / Fraction(q) == 1

    @given(st.fractions(min_value=Fraction(101, 100), max_value=Fraction(50)))
    @settings(max_examples=60)
    def test_holder_identity_fractions(self, p):
        q = conjugate_exponent(p)
        assert 1 / p + 1 / Fraction(q) == 1


class TestSpaceConfig:
    def test_defaults(self):
        cfg = SpaceConfig()
        assert cfg.p == 2 and cfg.truncation_degree == 512 and cfg.tail_window == 10

    def test_q_property(self):
        assert SpaceConfig(p=4).q == Fraction(4, 3)

    def test_sup_mode_at_p_one(self):
        assert SpaceConfig(p=1).sup_mode
        assert not SpaceConfig(p=2).sup_mode

    def test_bad_p(self):
        with pytest.raises(ValidationError):
            SpaceConfig(p=0.5)

    def test_bad_window(self):
        with pytest.raises(ValidationError):
            SpaceConfig(tail_window=0)

    @pytest.mark.parametrize("tolerance", [0, -1e-7, math.inf, math.nan])
    def test_bad_tolerance(self, tolerance):
        with pytest.raises(ValidationError, match="tolerance must be a finite positive real"):
            SpaceConfig(tolerance=tolerance)


@given(st.integers(0, 200))
def test_presets_positive(n):
    for name in ("hardy", "bergman", "dirichlet"):
        assert make_beta(name).value(n) > 0
    for name in ("ones", "factorial", "inverse-factorial"):
        assert make_delta(name).value(n) > 0


@given(st.integers(0, 60), st.integers(0, 60))
def test_kernel_symmetry(n_extra, k):
    n = k + n_extra
    delta = make_delta("inverse-factorial")
    assert delta.kernel(n, k) == delta.kernel(n, n - k)


def test_concurrent_reads_get_equal_values():
    """The memo takes no lock; it is idempotent, so threads that read the same
    indices at once get equal values."""
    delta = make_delta("inverse-factorial")
    beta = make_beta([Fraction(1, n + 2) for n in range(200)])
    start = threading.Barrier(4)
    seen = [None] * 4

    def read(slot):
        start.wait()
        seen[slot] = ([delta.value(n) for n in range(200)],
                      [beta.value(n) for n in range(200)],
                      [delta.kernel(n, k) for n in range(40) for k in range(n + 1)])

    threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen[1:] == seen[:1] * 3
    assert seen[0][0] == [Fraction(1, math.factorial(n)) for n in range(200)]
    assert seen[0][2][-2:] == [Fraction(1, 39), 1]


@given(st.lists(st.integers(1, 10 ** 30), min_size=1, max_size=12), st.data())
def test_kernel_of_int_weights_matches_the_fraction_quotient(values, data):
    """Two int weights divide as ints, or make one Fraction: the value and type
    of the ``Fraction`` quotient, reduced to an int when it is whole."""
    delta = make_delta([1] + values)
    n = len(values)
    k = data.draw(st.integers(0, n))
    quotient = Fraction(delta.value(n)) / (Fraction(delta.value(k)) * delta.value(n - k))
    want = int(quotient) if quotient.denominator == 1 else quotient
    got = delta.kernel(n, k)
    assert (type(got), got) == (type(want), want)


@pytest.mark.parametrize("index", [True, -1, 2.0, "3"])
def test_value_rejects_indices_that_are_not_nonnegative_ints(index):
    for seq in (make_beta("hardy"), make_delta("factorial"), DeltaSequence(lambda n: 1)):
        with pytest.raises(ValidationError, match="index must be a nonnegative integer"):
            seq.value(index)
