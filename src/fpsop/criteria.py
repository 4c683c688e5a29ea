"""Norm-bound evaluators for composition and weighted-substitution operators.

Each evaluator scans a truncated sup or sum, keeps the partial values exact
whenever the weights and exponents allow it, and packages the result as a
:class:`~fpsop.operators.BoundCertificate` with tail diagnostics.  A scan
that keeps growing through the final window is probed for divergence: the
value is reported as ``inf`` when it exceeds a cap or when the growth fails
to decay across dyadic windows; otherwise the partial value stands with
``converged=False``.  All of that is :func:`_certify`; the evaluators only
supply one contribution per outer index, through three shared scan shapes
or, for ``thm21`` and ``cor26``, as plain weight-ratio lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Optional, Sequence

from .combinatorics import PowerTable, stride_offsets
from .operators import BoundCertificate, _guard, _tail_stats
from .series import (
    PolynomialSymbol,
    TruncatedSeries,
    _exact,
    _float_pnorm,
    _nonneg_fsum,
    _scaled,
    norm,
)
from .weights import (
    DeltaSequence,
    SpaceConfig,
    ValidationError,
    WeightSequence,
    _safe_float,
)

__all__ = [
    "CriterionRequest",
    "composition_bounds_polynomial",
    "composition_norm_monomial",
    "multiplier_algebra_bound",
    "substitution_bounds_monomial_multiplier",
    "substitution_bounds_monomial_pair",
    "substitution_bounds_monomial_symbol",
]

DECAY_RATIO = 0.9

DYADIC_GROWTH_RATIO = 0.75


@dataclass(frozen=True)
class CriterionRequest:
    """Input bundle for the bound evaluators.

    ``stride`` is the degree of a unit-monomial substitution symbol,
    ``shift`` the degree of a unit-monomial multiplier; general symbols and
    multipliers travel as ``phi`` and ``u``.  ``inner_power_limit`` truncates
    the inner sums over symbol powers (default: the truncation degree) and
    ``cap`` is the magnitude above which a still-growing scan is declared
    divergent.
    """

    beta: WeightSequence
    delta: DeltaSequence
    space: SpaceConfig
    u: Optional[TruncatedSeries] = None
    phi: Optional[PolynomialSymbol] = None
    stride: Optional[int] = None
    shift: Optional[int] = None
    inner_power_limit: Optional[int] = None
    cap: float = 1e12

    def __post_init__(self):
        for name in ("stride", "shift", "inner_power_limit"):
            v = getattr(self, name)
            if v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValidationError(f"{name} must be a nonnegative integer, got {v!r}")
        if not (isinstance(self.cap, (int, float)) and 0 < self.cap < math.inf):
            raise ValidationError("cap must be a finite positive real")
        for name, other in (("stride", "phi"), ("shift", "u")):
            given, series = getattr(self, name), getattr(self, other)
            if given is not None and series is not None and series.monomial_degree() != given:
                raise ValidationError(
                    f"{name}={given} conflicts with {other}, which is not z**{given}")

    @property
    def power_limit(self) -> int:
        if self.inner_power_limit is not None:
            return self.inner_power_limit
        return self.space.truncation_degree


def _gt(a, b, bf: float) -> bool:
    """Whether ``a`` beats the best ``b`` so far, whose float is ``bf``: exact
    values, and exact pairs by cross-multiplication, compare exactly with
    their own kind; anything else compares as a float."""
    if type(a) is float:
        return a > bf
    if type(a) is tuple and type(b) is tuple:
        return a[0] * b[1] > b[0] * a[1]
    if isinstance(a, Rational) and isinstance(b, Rational):
        return a > b
    return _as_float(a) > bf


def _as_float(v) -> float:
    """A scan value as a float, ``inf`` beyond float range.  An exact pair
    ``(en, ed)`` is ``en / ed``: integer true division is correctly rounded,
    so it has the bits of ``float(Fraction(en, ed))``."""
    t = type(v)
    if t is float:
        return v
    if t is tuple:
        try:
            return v[0] / v[1]
        except OverflowError:
            return math.inf
    return _safe_float(v)


def _pow(x, e):
    """x**e for nonnegative x; exact when x is rational and e a whole number.
    An exact pair ``(en, ed)`` is reduced first."""
    t = type(x)
    if t is not float:
        if t is tuple:
            x = _reduced(*x)
            t = type(x)
        if isinstance(e, int) and e >= 0 and (
                t is int or t is Fraction or isinstance(x, Rational)):
            return x ** e
    xf = _safe_float(x)
    ef = float(e)
    if xf == 0.0:
        return 0.0
    if math.isinf(xf):
        return math.inf
    try:
        return xf ** ef
    except OverflowError:
        return math.inf


def _reduced(en: int, ed: int):
    """The exact pair ``(en, ed)`` as an int or a reduced Fraction."""
    exact = Fraction(en, ed)
    return int(exact) if exact.denominator == 1 else exact


def _pair(nums: Sequence, dens: Sequence, divisor: int = 1):
    """Product ratio of positive factors over the integer ``divisor`` (the
    denominator of a power-table row): the unreduced integer pair
    ``(en, ed)`` when every factor is rational, else a float.

    Rational factors are collapsed into one integer numerator and one
    integer denominator, so huge or tiny exact weights (factorials and their
    reciprocals) cancel before any float is touched; only genuinely
    non-rational factors go through float products.  Integer true division
    is correctly rounded, so the float has the bits of ``float(Fraction)``
    times the float scale.  The scans keep pairs unreduced and reduce once
    per row or certificate (Knuth, TAOCP vol. 2, 4.5.1).
    """
    en, ed = 1, divisor
    num, den = 1.0, 1.0
    for v in nums:
        t = type(v)
        if t is float:
            num *= v
        elif t is int:
            en *= v
        elif t is Fraction or isinstance(v, Rational):
            en *= v.numerator
            ed *= v.denominator
        else:
            num *= _safe_float(v)
    for v in dens:
        t = type(v)
        if t is float:
            den *= v
        elif t is int:
            ed *= v
        elif t is Fraction or isinstance(v, Rational):
            en *= v.denominator
            ed *= v.numerator
        else:
            den *= _safe_float(v)
    if num == 1.0 and den == 1.0:
        return en, ed
    if den == 0.0 or (math.isinf(num) and math.isinf(den)):
        raise ValidationError(
            "ratio of weights is numerically indeterminate; use exact weight lists"
        )
    scale = num / den
    if math.isinf(scale):
        return math.inf if en > 0 else 0.0
    try:
        return en / ed * scale
    except OverflowError:
        return math.inf


class _ReadOnce(dict):
    """``reads[i]`` is ``read(i)``, called only the first time a scan needs
    index ``i``: weights are read once per scan, in the order the scan first
    reaches them, while the scan revisits indices out of order."""

    __slots__ = ("_read",)

    def __init__(self, read: Callable):
        super().__init__()
        self._read = read

    def __missing__(self, i):
        v = self[i] = self._read(i)
        return v


def _exponent(a, b=1):
    """The exponent ``a / b`` (``p``, ``q``, ``1/p``, ``1/q``, ``p/q``): an int
    when ``a`` and ``b`` are rational and the quotient whole, else a float."""
    if isinstance(a, Rational) and isinstance(b, Rational):
        f = Fraction(a) / Fraction(b)
        return int(f) if f.denominator == 1 else float(f)
    return float(a) / float(b)


def _exact_or_fsum(values: list):
    """The sum of nonnegative values: exact, over one common denominator, when
    every value is rational, else their float fsum (``inf`` beyond float range)."""
    if all(isinstance(v, Rational) for v in values):
        nums, den = _scaled(values)
        return _exact(sum(nums), den)
    return _nonneg_fsum(map(_safe_float, values))


def _q_pairs(terms: list, qe):
    """``sum t**q`` over the nonzero scan terms, exact pairs or floats, or
    their max when ``qe`` is None (p = 1).

    A row of pairs with ``qe`` None or whole is reduced once: its max by
    cross-multiplication, or its ``en**q`` summed per distinct ``ed**q`` over
    the LCM of those.  A fractional ``qe`` takes each pair as ``en / ed``; a
    row with a float term reduces its pairs (``_pow`` does for a whole ``qe``).
    """
    if qe is not None and type(qe) is not int:
        terms = [_as_float(t) for t in terms]
    elif all(type(t) is tuple for t in terms):
        if qe is None:
            best = (0, 1)
            for t in terms:
                if t[0] * best[1] > best[0] * t[1]:
                    best = t
            return _reduced(*best)
        sums: dict = {}
        for en, ed in terms:
            if en:
                sums[ed] = sums.get(ed, 0) + en ** qe
        return _reduced(*_lcm_sum({ed ** qe: s for ed, s in sums.items()}))
    if qe is None:
        return max((_reduced(*t) if type(t) is tuple else t for t in terms), default=0)
    return _exact_or_fsum([_pow(t, qe) for t in terms if t != 0])


def _lcm_sum(sums: dict) -> tuple:
    """``sum s / d`` over ``{d: s}`` as the unreduced pair (numerator, LCM of
    the ``d``)."""
    den = math.lcm(*sums)
    return sum(s * (den // d) for d, s in sums.items()), den


def _decayed(last3: Sequence[float]) -> bool:
    """Geometric-decay test on the trailing inner-sum terms."""
    if last3 and last3[-1] == 0.0:
        return True
    if len(last3) < 3:
        return False
    a, b, c = last3[-3:]
    return c <= DECAY_RATIO * b and b <= DECAY_RATIO * a


def _certify(contributions: Iterable, *, kind: str, space: SpaceConfig, cap: float,
             summed: bool = False, outer_exponent=1, scale: float = 1.0,
             inner_ok: bool = True, notes: Iterable[str] = ()) -> BoundCertificate:
    """Certify the running supremum (or, ``summed``, sum) of the contributions.

    One contribution per outer index, ``None`` for an empty one; a sup scan
    also takes exact pairs ``(en, ed)`` and compares them by
    cross-multiplication, so no pair is reduced.  The value
    and its trajectory are raised to ``outer_exponent`` and multiplied by
    ``scale``; the final window (``_tail_stats``) decides convergence and
    divergence.
    """
    ef = float(outer_exponent)

    def tf(x: float) -> float:
        return 0.0 if x <= 0.0 else _pow(x, ef) * scale

    traj: list[float] = []
    attained = None
    if summed:
        parts, level = [], 0.0
        for v in contributions:
            if v:
                parts.append(v)
                level += _safe_float(v)
            traj.append(tf(level))
        total = _exact_or_fsum(parts)
    else:
        best, level = None, 0.0
        for i, v in enumerate(contributions):
            if v is not None and (best is None or _gt(v, best, level)):
                best, level, attained = v, _as_float(v), i
            traj.append(tf(level))
        total = 0 if best is None else best
    value = tf(_as_float(total))
    note_list = list(notes)
    tol = space.tolerance
    tail_delta, settled = _tail_stats(traj, space.tail_window, tol)
    n_top = len(traj) - 1
    hi = traj[-1]

    diverged = False
    if math.isinf(value) or math.isinf(hi):
        diverged = True
        note_list.append("scan overflowed to infinity")
    elif tail_delta > tol:
        if value > cap:
            diverged = True
            note_list.append(f"still growing past the cap {cap:g}")
        elif n_top >= 8:
            mid, quarter = traj[n_top // 2], traj[n_top // 4]
            d_last = hi - mid
            d_prev = mid - quarter
            if d_prev > 0.0 and d_last > tol and d_last >= DYADIC_GROWTH_RATIO * d_prev:
                diverged = True
                note_list.append(
                    "growth does not decay across dyadic windows; divergent scan"
                )

    if not inner_ok:
        note_list.append("inner power sums truncated without certified decay")
    if space.sup_mode:
        note_list.append("p=1: conjugate-exponent sums taken as suprema")

    if diverged:
        value, attained = math.inf, None
    elif attained is not None and attained > max(n_top - space.tail_window, 0):
        attained = None
    return BoundCertificate(
        value=value, kind=kind, attained_at=attained,
        truncation_degree=space.truncation_degree, tail_delta=tail_delta,
        converged=settled and inner_ok and not math.isinf(value),
        notes=tuple(note_list),
    )


def _kernel_sup(req: CriterionRequest, stride: int, scale: float, note: str
                ) -> BoundCertificate:
    """``scale`` times the sup over ``n`` of the q-aggregated kernel
    ``d(n) w(n) / (d(k) d(n-k) w(k) w((n-k)/stride))``, ``stride | n-k``.

    While the weights read are rational and ``q`` whole, row ``n`` is
    ``c(n) sum 1 / (c(k) b(n-k))`` over the integer pairs ``c(i) = (d(i) w(i))**q``
    and ``b(j) = (d(j) w(j/stride))**q``, powered once per index, summed per
    denominator over their LCM (:func:`_lcm_sum`) and reduced once; any
    other row takes the per-term :func:`_pair` route, to the same value.
    """
    beta, delta, space = req.beta, req.delta, req.space
    qe = None if space.sup_mode else _exponent(space.q)

    def powered(x, y):
        return (x.numerator * y.numerator) ** qe, (x.denominator * y.denominator) ** qe

    def rows():
        # Row n reads no index above n, so each weight is read once, in order.
        d, w, c, b = [], [], [], []
        factored = type(qe) is int
        for n in range(space.truncation_degree + 1):
            d.append(delta.value(n))
            w.append(beta.value(n))
            offsets = stride_offsets(n, stride)
            factored = factored and isinstance(d[n], Rational) and isinstance(w[n], Rational)
            if not factored:
                yield _q_pairs([
                    _pair([d[n], w[n]], [d[k], d[n - k], w[k], w[(n - k) // stride]])
                    for k in offsets
                ], qe)
                continue
            c.append(powered(d[n], w[n]))
            if n % stride == 0:
                b.append(powered(d[n], w[n // stride]))
            sums: dict = {}
            for k in offsets:
                (kn, kd), (jn, jd) = c[k], b[(n - k) // stride]
                den = kn * jn
                sums[den] = sums.get(den, 0) + kd * jd
            num, den = _lcm_sum(sums)
            yield _reduced(c[n][0] * num, c[n][1] * den)

    return _certify(
        rows(), kind="upper", space=space, cap=req.cap,
        outer_exponent=1 if space.sup_mode else _exponent(1, space.q),
        scale=scale, notes=(note,),
    )


def _power_sum_upper(req: CriterionRequest, table: PowerTable, shift: int,
                     term: Callable, row: Callable, note: str) -> BoundCertificate:
    """The p-summed bound: row ``n >= shift`` contributes ``row(n, j, agg)``,
    ``agg`` the q-aggregate of ``term(n, L, num, den)``, ``j = n - shift``,
    where ``theta(j, L) = num / den`` with ``num`` nonzero."""
    space, L_max = req.space, req.power_limit
    qe = None if space.sup_mode else _exponent(space.q)
    inner_ok = True
    rows = [None] * min(shift, space.truncation_degree + 1)
    for n in range(shift, space.truncation_degree + 1):
        j = n - shift
        terms = []
        for L in table.power_range(j):
            if L > L_max:
                break
            num, den = table.theta_scaled(j, L)
            terms.append((0, 1) if num == 0 else term(n, L, num, den))
        if _natural_power_cut(table.phi, j, L_max) and not _decayed(
                [_as_float(t) for t in terms[-3:]]):
            inner_ok = False
        rows.append(row(n, j, _q_pairs(terms, qe)))
    return _certify(
        rows, kind="upper", space=space, cap=req.cap, summed=True,
        outer_exponent=_exponent(1, space.p), inner_ok=inner_ok, notes=(note,),
    )


def _column_lower(req: CriterionRequest, column: Callable, note: str) -> BoundCertificate:
    """The best ratio ``norm(image of z**l) / w(l)``; ``column(l)`` yields
    the ``(coefficient, float weight)`` pairs of that image."""
    beta, space = req.beta, req.space
    pf = float(space.p)
    return _certify(
        (_float_pnorm(column(l), pf) / beta.as_float(l)
         for l in range(space.truncation_degree + 1)),
        kind="lower", space=space, cap=req.cap, notes=(note,),
    )


def _zero_certificate(kind: str, space: SpaceConfig, note: str) -> BoundCertificate:
    return BoundCertificate(
        value=0.0, kind=kind, attained_at=None,
        truncation_degree=space.truncation_degree, tail_delta=0.0,
        converged=True, notes=(note,),
    )


def _phi_of(req: CriterionRequest) -> PolynomialSymbol:
    if req.phi is not None:
        return req.phi
    if req.stride is not None:
        return PolynomialSymbol.monomial(req.stride)
    raise ValidationError("this evaluator needs a substitution symbol (phi or stride)")


def _unit_degree(given: Optional[int], series, what: str) -> int:
    """``given``, else the degree of ``series`` when it is a unit monomial."""
    m = series.monomial_degree() if given is None and series is not None else given
    if m is None:
        raise ValidationError(f"this evaluator needs a unit-monomial {what}")
    return m


def _stride_of(req: CriterionRequest) -> int:
    return _unit_degree(req.stride, req.phi, "symbol degree (stride)")


def _shift_of(req: CriterionRequest) -> int:
    return _unit_degree(req.shift, req.u, "multiplier degree (shift)")


def _build_table(phi: PolynomialSymbol, degree_bound: int, max_power: int) -> PowerTable:
    if phi.monomial_degree() is None:
        _guard((degree_bound + 1) * (max_power + 1), "power table")
    return PowerTable(phi, degree_bound=degree_bound, max_power=max_power)


def _natural_power_cut(phi: PolynomialSymbol, n: int, limit: int) -> bool:
    """Whether the powers contributing at degree ``n`` exceed ``limit``."""
    low = phi.min_degree()
    if low is None:
        return False
    if low == 0:
        return not (phi.degree == 0 and n > 0)
    return n // low > limit


def composition_norm_monomial(req: CriterionRequest) -> BoundCertificate:
    """Exact norm of composition with a unit monomial: the weight-ratio sup.

    The operator sends ``z**n`` to ``z**(stride*n)``, so its norm is the
    supremum of ``w(stride*n) / w(n)``; the certificate scans it up to the
    truncation degree.
    """
    m = _stride_of(req)
    if m == 0:
        raise ValidationError(
            "constant symbol: use composition_bounds_polynomial with degree 0"
        )
    beta, space = req.beta, req.space
    return _certify(
        (_pair([beta.value(n * m)], [beta.value(n)])
         for n in range(space.truncation_degree + 1)),
        kind="exact", space=space, cap=req.cap,
        notes=(f"weight-ratio supremum for the degree-{m} monomial symbol",),
    )


def composition_bounds_polynomial(req: CriterionRequest
                                  ) -> tuple[BoundCertificate, BoundCertificate]:
    """Upper and lower norm bounds for composition with a polynomial symbol.

    Upper: the p-summed, q-aggregated power-coefficient bound.  Lower: the
    best monomial image ratio ``norm(C z**n) / w(n)`` with rows truncated at
    the same degree, so it agrees exactly with the shifted variant at
    shift 0.
    """
    phi = _phi_of(req)
    beta, space = req.beta, req.space
    N = space.truncation_degree
    p = space.p
    table = _build_table(phi, degree_bound=N, max_power=max(req.power_limit, N))
    # At p = 1 only an int p keeps the rows exact; a Fraction p is taken as float.
    e = (p if isinstance(p, int) else float(p)) if space.sup_mode else _exponent(p, space.q)
    w, wf = _ReadOnce(beta.value), _ReadOnce(beta.as_float)
    upper_cert = _power_sum_upper(
        req, table, 0,
        term=lambda n, L, num, den: _pair([abs(num), w[n]], [w[L]], den),
        row=lambda n, j, agg: _pow(agg, e),
        note="power-coefficient sum bound",
    )

    def column(n):
        pairs, den = table.row_nonzeros_scaled(n)
        return ((x if den == 1 else _as_float((x, den)), wf[j]) for j, x in pairs)

    lower_cert = _column_lower(
        req, column, "monomial image ratios, rows truncated at the scan degree")
    return upper_cert, lower_cert


def substitution_bounds_monomial_symbol(req: CriterionRequest
                                        ) -> tuple[BoundCertificate, BoundCertificate]:
    """Bounds for ``u``-multiplied composition with a unit-monomial symbol.

    Upper: the stride-offset kernel sup, q-aggregated and scaled by the norm
    of ``u``.  Lower: the best shifted-column ratio using the coefficients
    of ``u`` along each column.
    """
    m = _stride_of(req)
    if m == 0:
        raise ValidationError("the symbol degree (stride) must be at least 1")
    u = req.u if req.u is not None else TruncatedSeries.unity(0)
    beta, delta, space = req.beta, req.delta, req.space
    N = space.truncation_degree
    unorm = norm(u, beta, float(space.p))
    if unorm == 0.0:
        zero = _zero_certificate("upper", space, "zero multiplier series")
        return zero, _zero_certificate("lower", space, "zero multiplier series")

    upper_cert = _kernel_sup(
        req, m, unorm, "stride-offset kernel supremum times the multiplier norm")

    d, w = _ReadOnce(delta.value), _ReadOnce(beta.value)

    def column(l):
        base = m * l
        return ((_as_float(_pair([d[base + k], w[base + k], abs(c)], [d[base], d[k]])), 1.0)
                for k, c in enumerate(u.coeffs[:max(N - base + 1, 0)]) if c != 0)

    lower_cert = _column_lower(
        req, column, "shifted-column ratios from the multiplier coefficients")
    return upper_cert, lower_cert


def multiplier_algebra_bound(req: CriterionRequest) -> BoundCertificate:
    """The algebra constant: q-aggregated diamond-kernel weight sup.

    Certifies ``norm(f ⟡ g) <= value * norm(f) * norm(g)``; finite values
    make the space a unital commutative normed algebra under the diamond
    product (after scaling by the constant).
    """
    return _kernel_sup(req, 1, 1.0, "diamond-kernel weight supremum (algebra constant)")


def substitution_bounds_monomial_multiplier(req: CriterionRequest
                                            ) -> tuple[BoundCertificate, BoundCertificate]:
    """Bounds for a unit-monomial multiplier with a polynomial symbol.

    Upper: p-summed kernel factors times q-aggregated power coefficients.
    Lower: best per-power column ratio of the shifted coefficient rows.
    """
    shift = _shift_of(req)
    phi = _phi_of(req)
    beta, delta, space = req.beta, req.delta, req.space
    N = space.truncation_degree
    p = space.p
    table = _build_table(phi, degree_bound=max(N - shift, 0),
                         max_power=max(req.power_limit, N))
    pe = _exponent(p)
    e = pe if space.sup_mode else _exponent(p, space.q)

    d, w = _ReadOnce(delta.value), _ReadOnce(beta.value)

    def row(n, j, agg):
        kern = _pair([d[n], w[n]], [d[shift], d[j]])
        if agg == 0:
            return 0
        try:
            return _pow(kern, pe) * _pow(agg, e)
        except OverflowError:  # an exact kernel power beyond float range times a float
            return math.inf

    upper_cert = _power_sum_upper(
        req, table, shift,
        term=lambda n, L, num, den: _pair([abs(num)], [w[L]], den), row=row,
        note="shifted power-coefficient sum bound",
    )

    def column(l):
        pairs, den = table.row_nonzeros_scaled(l)
        return ((_as_float(_pair([d[j + shift], w[j + shift], abs(x)], [d[shift], d[j]], den)),
                 1.0) for j, x in pairs)

    lower_cert = _column_lower(req, column, "shifted monomial-image ratios")
    return upper_cert, lower_cert


def substitution_bounds_monomial_pair(req: CriterionRequest
                                      ) -> tuple[BoundCertificate, BoundCertificate]:
    """Bounds when both the multiplier and the symbol are unit monomials.

    Every image coefficient lands on the arithmetic progression
    ``shift + stride*m``, so both bounds are plain ratio suprema over the
    inputs ``z**m``, ``m <= N``: the upper scans them by output degree, up to
    ``shift + stride*N`` where the image of ``z**N`` lands, with the degrees
    off the progression as empty entries; the lower scans them by input
    degree.
    """
    m1 = _shift_of(req)
    m2 = _stride_of(req)
    if m2 == 0:
        raise ValidationError("the symbol degree (stride) must be at least 1")
    beta, delta, space = req.beta, req.delta, req.space
    N = space.truncation_degree

    ratios = [
        _pair([delta.value(m1 + m * m2), beta.value(m1 + m * m2)],
              [delta.value(m1), delta.value(m * m2), beta.value(m)])
        for m in range(N + 1)
    ]
    by_output = [None] * (m1 + m2 * N + 1)
    by_output[m1::m2] = ratios
    return (
        _certify(by_output, kind="upper", space=space, cap=req.cap,
                 notes=("progression ratio supremum by output degree",)),
        _certify(ratios, kind="lower", space=space, cap=req.cap,
                 notes=("progression ratio supremum by input degree",)),
    )
