"""Independent reference implementations used to freeze expected test values.

Everything here is written directly from the defining formulas with plain
loops and exact rational arithmetic, deliberately sharing no code with the
package under test (``ratio_reference`` and ``parse_once_reference``
borrow only their error types).  Two are the exceptions:
``q_aggregate_reference`` aggregates reduced values with the package's own
``_pow`` and ``_exact_or_fsum``, and ``kernel_rows_reference`` keeps the
per-term kernel route on the package's own ``_pair`` and ``_q_pairs``, which
``test_criteria.py`` pins against ``ratio_reference`` and
``q_aggregate_reference``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational

from fpsop.cli import ConfigError
from fpsop.combinatorics import stride_offsets
from fpsop.criteria import _exact_or_fsum, _exponent, _pair, _pow, _q_pairs
from fpsop.weights import ValidationError


def conv_reference(a, b, n_max):
    """Plain Cauchy convolution of coefficient lists, truncated at n_max."""
    out = [0] * (n_max + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= n_max:
                out[i + j] = out[i + j] + ai * bj
    return out


def diamond_reference(f, g, delta_values, n_max):
    """Twisted convolution from the defining double sum.

    Coefficient n is sum_k delta(n)/(delta(k) delta(n-k)) f_k g_{n-k}.
    """
    out = [Fraction(0)] * (n_max + 1)
    for k, fk in enumerate(f):
        for j, gj in enumerate(g):
            n = k + j
            if n <= n_max:
                w = Fraction(delta_values[n]) / (
                    Fraction(delta_values[k]) * Fraction(delta_values[j]))
                out[n] = out[n] + w * fk * gj
    return out


def compose_reference(f, alphas, n_max):
    """f(phi(z)) by accumulating plain powers of phi."""
    out = [0] * (n_max + 1)
    power = [1] + [0] * n_max
    for k, fk in enumerate(f):
        if k > 0:
            power = conv_reference(power, alphas, n_max)
        for n in range(n_max + 1):
            out[n] = out[n] + fk * power[n]
    return out


def substitute_reference(u, f, alphas, delta_values, n_max):
    """u diamond f(phi) built from the two reference routines above."""
    inner = compose_reference(f, alphas, n_max)
    return diamond_reference(u, inner, delta_values, n_max)


def power_coeff_reference(alphas, n, big_l):
    """Coefficient of z^n in phi^L via repeated plain convolution."""
    power = [1]
    for _ in range(big_l):
        power = conv_reference(power, alphas, n)
    return power[n] if n < len(power) else 0


def power_coeff_exhaustive(alphas, n, big_l):
    """Coefficient of z^n in phi^L by exhaustive multi-index search.

    Sums multinomial(L; l_0..l_d) prod alphas[i]^{l_i} over every exponent
    tuple with sum L and weighted sum n.  Exponential; small inputs only.
    """
    d = len(alphas) - 1
    total = 0
    for combo in itertools.product(range(big_l + 1), repeat=d + 1):
        if sum(combo) != big_l:
            continue
        if sum(i * li for i, li in enumerate(combo)) != n:
            continue
        coef = math.factorial(big_l)
        term = 1
        for i, li in enumerate(combo):
            coef //= math.factorial(li)
            term *= alphas[i] ** li
        total += coef * term
    return total


def compositions_exhaustive(total_weight, num_parts, degrees):
    """All exponent tuples over `degrees` with the given part and weight sums."""
    found = set()
    for combo in itertools.product(range(num_parts + 1), repeat=len(degrees)):
        if sum(combo) != num_parts:
            continue
        if sum(d * li for d, li in zip(degrees, combo)) != total_weight:
            continue
        found.add(combo)
    return found


def norm_reference(coeffs, beta_values, p):
    """The weighted p-norm as a direct float sum."""
    total = math.fsum(
        (abs(float(c)) * float(beta_values[n])) ** p for n, c in enumerate(coeffs))
    return total ** (1.0 / p)


def rand_rational(rng, num_max=8, den_max=8):
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def rand_coeffs(rng, max_deg, num_max=8, den_max=8):
    deg = rng.randint(0, max_deg)
    return [rand_rational(rng, num_max, den_max) for _ in range(deg + 1)]


def rand_symbol_coeffs(rng, max_deg, num_max=8, den_max=8):
    """Polynomial coefficients with a nonzero top term (degree >= 1)."""
    deg = rng.randint(1, max_deg)
    coeffs = [rand_rational(rng, num_max, den_max) for _ in range(deg)]
    top = Fraction(0)
    while top == 0:
        top = rand_rational(rng, num_max, den_max)
    return coeffs + [top]


def _safe_float_reference(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


def ratio_reference(nums, dens):
    """The weight-ratio product as it was computed through ``Fraction``
    factors: kept verbatim, it is the bit-for-bit reference for the reduced
    result of the integer-collapsing ``criteria._pair``."""
    exact = Fraction(1)
    num, den = 1.0, 1.0
    for v in nums:
        if isinstance(v, Rational):
            exact *= Fraction(v)
        else:
            num *= _safe_float_reference(v)
    for v in dens:
        if isinstance(v, Rational):
            exact /= Fraction(v)
        else:
            den *= _safe_float_reference(v)
    if num == 1.0 and den == 1.0:
        return int(exact) if exact.denominator == 1 else exact
    if den == 0.0 or (math.isinf(num) and math.isinf(den)):
        raise ValidationError(
            "ratio of weights is numerically indeterminate; use exact weight lists"
        )
    scale = num / den
    if math.isinf(scale):
        return math.inf if exact > 0 else 0.0
    try:
        return float(exact) * scale
    except OverflowError:
        return math.inf


def q_aggregate_reference(terms, qe):
    """``sum t**q`` over the nonzero reduced terms, or their max when ``qe``
    is None (p = 1): ``criteria._q_aggregate`` kept verbatim, the reference
    for ``_q_pairs`` on unreduced pairs."""
    if qe is None:
        return max(terms, default=0)
    return _exact_or_fsum([_pow(t, qe) for t in terms if t != 0])


def _parse_scalar_reference(value, what: str):
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad {what} entry {value!r}: {exc}") from exc
    raise ConfigError(f"{what} must be a number or 'num/den' string, got {type(value).__name__}")


def _render_scalar_reference(value):
    if isinstance(value, bool):
        raise ConfigError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, float):
        return "inf" if math.isinf(value) else value
    raise ConfigError(f"cannot render {type(value).__name__}")


def parse_once_reference(value, what: str):
    """``cli._parse_once`` as it parsed every string through ``Fraction(str)``
    and rendered the echo with ``str(Fraction)``: kept verbatim, it is the
    reference for the route that reads canonical ``a/b`` text itself."""
    scalar = _parse_scalar_reference(value, what)
    if isinstance(scalar, float) and not math.isfinite(scalar):
        raise ConfigError(f"{what} entries must be finite, got {value!r}")
    echo = _render_scalar_reference(scalar)
    return echo, (scalar if isinstance(echo, str) else echo)


def kernel_rows_reference(req, stride):
    """The rows of ``criteria._kernel_sup`` as it built each one term by
    term, every term through ``_pair`` and the row through ``_q_pairs``: kept
    verbatim, it is the reference for the rows built from per-index powered
    weight pairs."""
    beta, delta, space = req.beta, req.delta, req.space
    qe = None if space.sup_mode else _exponent(space.q)

    def rows():
        # Row n reads no index above n, so each weight is read once, in order.
        d, w = [], []
        for n in range(space.truncation_degree + 1):
            d.append(delta.value(n))
            w.append(beta.value(n))
            yield _q_pairs([
                _pair([d[n], w[n]], [d[k], d[n - k], w[k], w[(n - k) // stride]])
                for k in stride_offsets(n, stride)
            ], qe)

    return rows()
