"""Independent reference implementations used to freeze expected test values.

Everything here is written directly from the defining formulas with plain
loops and exact rational arithmetic, deliberately sharing no code with the
package under test (``ratio_reference`` and ``parse_once_reference``
borrow only their error types).  The exceptions are the routes kept verbatim
from the package as bit-for-bit references for the code that replaced them:
``q_aggregate_reference`` aggregates reduced values with the package's own
``_pow`` and ``_exact_or_fsum``; ``kernel_rows_reference``,
``power_sum_upper_reference``, ``shifted_lower_reference`` and the two
ratio-list references keep their per-term routes on the package's own
``_pair``, ``_q_pairs`` and ``_column_lower``, which
``test_criteria.py`` pins against ``ratio_reference`` and
``q_aggregate_reference``; ``scaled_array_reference`` reads the package's
weights; ``csr_toarray`` is the dense view of the package's ``_CSR``, kept
here since only tests read it; ``finite_scaled_reference`` and
``lone_norms_reference`` are the numpy route to the lone-column norms on the
package's ``scaled_array``, the reference for the plain-float front that
replaced it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational

from fpsop.cli import ConfigError
from fpsop.combinatorics import stride_offsets
from fpsop.criteria import (_as_float, _build_table, _certify, _column_lower, _decayed,
                            _exact_or_fsum, _exponent, _natural_power_cut, _pair, _pow,
                            _q_pairs)
from fpsop.series import _exact
from fpsop.weights import ValidationError, _ReadOnce, _safe_float


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


def float_convolve_reference(a, b, degree_bound):
    """The float convolution of ``series`` as it summed each output entry in
    its own loop, skipping the terms with a zero operand: kept verbatim, it is
    the bit-for-bit reference for ``series._convolve`` on floats, built from
    slices."""
    out = []
    for n in range(degree_bound + 1):
        lo, hi = max(0, n - len(b) + 1), min(n, len(a) - 1)
        acc = 0.0
        for k in range(lo, hi + 1):
            x, y = a[k], b[n - k]
            if x and y:
                acc += x * y
        out.append(acc)
    return out


def table_theta_scaled(table, n, L):
    """The ``z**n`` coefficient of ``phi**L`` from a ``PowerTable``, as an
    unreduced ``(numerator, denominator)`` read from its stored row; an index
    beyond the table is rejected."""
    table.power_range(n)  # checks n
    pairs, den = table.row_nonzeros_scaled(L)
    return dict(pairs).get(n, 0), den


def table_theta(table, n, L):
    """The ``z**n`` coefficient of ``phi**L`` from a ``PowerTable``, reduced."""
    return _exact(*table_theta_scaled(table, n, L))


def table_row(table, L):
    """All coefficients of ``phi**L`` up to the table's degree bound, reduced:
    float rows keep their floats, exact rows read 0 where ``phi**L`` has no
    term."""
    out = [0.0 if table.phi.mode == "float" else 0] * (table.degree_bound + 1)
    pairs, den = table.row_nonzeros_scaled(L)
    for n, x in pairs:
        out[n] = _exact(x, den)
    return tuple(out)


def power_sum_upper_reference(req, table, shift, w, row, note):
    """``criteria._power_sum_upper`` as it built each term through ``_pair``,
    reading ``theta`` term by term, and each row through ``_q_pairs``: kept
    verbatim behind the current signature, it is the reference for the
    inline float rows and the powered exact rows."""
    def term(n, L, num, den):
        return _pair([abs(num)], [w[L]], den)

    space = req.space
    qe = None if space.sup_mode else _exponent(space.q)
    inner_ok = True
    rows = [None] * min(shift, space.truncation_degree + 1)
    for n in range(shift, space.truncation_degree + 1):
        j = n - shift
        terms = []
        for L in table.power_range(j):
            num, den = table_theta_scaled(table, j, L)
            terms.append((0, 1) if num == 0 else term(n, L, num, den))
        if _natural_power_cut(table.phi, j) and not _decayed(
                [_as_float(t) for t in terms[-3:]]):
            inner_ok = False
        rows.append(row(n, j, _q_pairs(terms, qe)))
    return _certify(
        rows, kind="upper", space=space, summed=True,
        outer_exponent=_exponent(1, space.p), inner_ok=inner_ok, q_sup=space.sup_mode,
        notes=(note,),
    )


def shifted_lower_reference(req, shift):
    """The lower of ``z**shift ◇ C_phi`` as ``thm25`` built it, one ``_pair``
    per column term, delta read as ones at shift 0: the reference for the
    kernel read once per degree."""
    N = req.space.truncation_degree
    table = _build_table(req.phi, degree_bound=max(N - shift, 0), max_power=N)
    d = _ReadOnce(req.delta.value if shift else lambda n: 1)
    w = _ReadOnce(req.beta.value)

    def column(l):
        pairs, den = table.row_nonzeros_scaled(l)
        return [(_as_float(_pair([d[j + shift], w[j + shift], abs(x)], [d[shift], d[j]], den)),
                 1.0) for j, x in pairs]

    return _column_lower(req, column, "shifted monomial-image ratios")


def thm21_ratios_reference(beta, m, degree):
    """The ``thm21`` weight ratios as ``composition_norm_monomial`` built them,
    one ``_pair`` each: the reference for the inline float ratios."""
    return [_pair([beta.value(n * m)], [beta.value(n)]) for n in range(degree + 1)]


def cor26_ratios_reference(beta, delta, m1, m2, degree):
    """The ``cor26`` progression ratios as ``substitution_bounds_monomial_pair``
    built them, one ``_pair`` each: the reference for the inline float ratios."""
    return [
        _pair([delta.value(m1 + m * m2), beta.value(m1 + m * m2)],
              [delta.value(m1), delta.value(m * m2), beta.value(m)])
        for m in range(degree + 1)
    ]


def float_pnorm_reference(pairs, pf):
    """``series._float_pnorm`` as a loop with one ``try`` per term: the
    reference for the single comprehension that replaced it."""
    powers = []
    for c, w in pairs:
        x = abs(_safe_float(c)) * w
        try:
            powers.append(x ** pf)
        except OverflowError:
            powers.append(math.inf)
    try:
        total = math.fsum(powers)
    except OverflowError:
        total = math.inf
    return math.inf if math.isinf(total) else total ** (1.0 / pf)


def scaled_array_reference(T, beta):
    """``OperatorMatrix.scaled_array``'s ``(data, rows, cols)`` lists as it
    appended them entry by entry: the reference for the comprehensions."""
    rows, cols, data = [], [], []
    wf = _ReadOnce(beta.as_float)
    for L, col in enumerate(T.columns):
        inv = wf[L]
        for row, value in col:
            rows.append(row)
            cols.append(L)
            data.append(_safe_float(value) * wf[row] / inv)
    return data, rows, cols


def pnorm_reference(x, pf):
    """``operators._pnorm`` as it divided into a new array and summed with
    ``np.sum``: the reference for the in-place division."""
    import numpy as np

    if pf == 2.0:
        return float(np.linalg.norm(x))
    ax = np.abs(x)
    top = float(ax.max(initial=0.0))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((ax / top) ** pf)) ** (1.0 / pf)


def csr_toarray(A):
    """The dense array of an ``operators._CSR`` matrix."""
    import numpy as np

    out = np.zeros(A.shape)
    out[A.row, A.indices] += A.data
    return out


def finite_scaled_reference(T, beta):
    """``T.scaled_array(beta)``, refused as the oracles refuse it when an
    entry is not finite."""
    import numpy as np

    A = T.scaled_array(beta)
    if A.nnz and not np.isfinite(A.data).all():
        raise ValidationError("operator has non-finite scaled entries")
    return A


def lone_norms_reference(A, pf):
    """Each column's p-norm of an ``operators._CSR`` matrix, as numpy took
    the lone columns: at p != 1 its largest entry (not 0) times the norm of
    the column over that entry; at p = 1 the plain sum.  ``np.bincount``
    adds each column's terms in row order from 0.0.  (The search once took
    its p = 1 sums by ``np.sum``, which pairs terms from the eighth on and so
    can differ from these in the last bit on longer columns.)"""
    import numpy as np

    mags = abs(A.data)
    if pf == 1.0:
        return np.bincount(A.indices, mags, A.shape[1])
    tops = np.zeros(A.shape[1])
    np.maximum.at(tops, A.indices, mags)
    powers = (mags / np.maximum(tops, 5e-324)[A.indices]) ** pf
    return tops * np.bincount(A.indices, powers, A.shape[1]) ** (1.0 / pf)
