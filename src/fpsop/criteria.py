"""Norm-bound evaluators for composition and weighted-substitution operators.

Each evaluator scans a truncated sup or sum, keeps the partial values exact
whenever the weights and exponents allow it, and packages the result as a
:class:`~fpsop.weights.BoundCertificate` with tail diagnostics.  A scan
that keeps growing through the final window is probed for divergence: it
diverges when it exceeds a cap or when the growth fails to decay across
dyadic windows.  A divergent upper reads ``inf``; a divergent lower or exact
certificate keeps the largest value it scanned.  Either way, as for any scan
that has not settled, ``converged=False``.  All of that is :func:`_certify`;
the evaluators only supply one contribution per outer index, through three
shared scan shapes or, for ``thm21`` and ``cor26``, as plain weight-ratio
lists.  The column-ratio lowers, ``estimate``'s among them, share one scan,
:func:`_column_lower`.  ``thm22`` is ``thm25`` at shift 0 (``C_phi`` is
``z**0 ◇ C_phi``): both run :func:`_power_bounds`.  Every evaluator takes one
:class:`CriterionRequest`, whose ``space`` holds p and the truncation block;
the parsed ``cli.Config`` is one.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .combinatorics import PowerTable, stride_offsets
from .series import (
    FLOAT,
    PolynomialSymbol,
    TruncatedSeries,
    _exact,
    _float_pnorm,
    _scaled,
    _stored_degree,
    norm,
)
from .weights import (  # CriterionRequest: re-exported
    BoundCertificate,
    CriterionRequest,
    SpaceConfig,
    ValidationError,
    _guard,
    _ReadOnce,
    _safe_float,
)

if TYPE_CHECKING:
    from .operators import OperatorMatrix

__all__ = [
    "CriterionRequest",
    "column_lower_bound",
    "composition_bounds_polynomial",
    "composition_norm_monomial",
    "multiplier_algebra_bound",
    "substitution_bounds_monomial_multiplier",
    "substitution_bounds_monomial_pair",
    "substitution_bounds_monomial_symbol",
]

DECAY_RATIO = 0.9

DYADIC_GROWTH_RATIO = 0.75

# A scan still growing past this magnitude is declared divergent.
DIVERGENCE_CAP = 1e12

# The smallest normal float: a float below it has lost precision.
_TINY = sys.float_info.min


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


def _frexp(v) -> tuple[float, int]:
    """``(m, e)`` with ``v = m * 2**e`` and ``m`` in [1/2, 2), for a positive
    finite float or rational ``v``."""
    if type(v) is float:
        return math.frexp(v)
    en, ed = v.numerator, v.denominator
    e = en.bit_length() - ed.bit_length()
    return (en << -e if e < 0 else en) / (ed << e if e > 0 else ed), e


def _split(nums: Sequence, dens: Sequence) -> tuple[float, int]:
    """``(m, e)`` with ``prod(nums) / prod(dens) = m * 2**e``: every factor is
    split by :func:`_frexp`, so no partial product leaves float range."""
    m, e = 1.0, 0
    for v in nums:
        vm, ve = _frexp(v)
        m, e = m * vm, e + ve
    for v in dens:
        vm, ve = _frexp(v)
        m, e = m / vm, e - ve
    return m, e


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
    return _pair_of(*_pair_parts(nums, dens, divisor))


def _pair_parts(nums: Sequence, dens: Sequence, divisor: int = 1) -> tuple:
    """:func:`_pair`'s integer pair and float products ``(en, ed, num, den)``."""
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
    return en, ed, num, den


def _pair_of(en: int, ed: int, num: float, den: float):
    if num == 1.0 and den == 1.0:
        return en, ed
    if den == 0.0 or (math.isinf(num) and math.isinf(den)):
        raise ValidationError(
            "ratio of weights is numerically indeterminate; use exact weight lists")
    scale = num / den
    if math.isinf(scale):
        return math.inf if en > 0 else 0.0
    try:
        return en / ed * scale
    except OverflowError:
        return math.inf


def _ratios(reads: list) -> list:
    """``_pair([da, wa], [d1, dm, wb])`` for each read ``(da, wa, d1, dm, wb)``,
    built inline as ``da / (d1*dm) * (wa / wb)`` where the ``d`` are ints and
    the ``w`` plain floats, not both 1.0 (there ``_pair`` gives an exact
    pair).  An overflowing int quotient, or a zero one times an infinite
    ratio (nan), sends the whole list to ``_pair``."""
    try:
        out = [da / (d1 * dm) * (wa / wb)
               if type(wa) is float and type(wb) is float and (wa != 1.0 or wb != 1.0)
               and type(da) is int and type(d1) is int and type(dm) is int
               else _pair([da, wa], [d1, dm, wb]) for da, wa, d1, dm, wb in reads]
        if not any(r != r for r in out):
            return out
    except OverflowError:
        pass
    return [_pair([da, wa], [d1, dm, wb]) for da, wa, d1, dm, wb in reads]


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
    try:
        return math.fsum(map(_safe_float, values))
    except OverflowError:  # an intermediate sum beyond float range
        return math.inf


def _q_pairs(terms: list, qe):
    """``sum t**q`` over the nonzero scan terms, exact pairs or floats, or
    their max when ``qe`` is None (p = 1).

    A row of pairs with ``qe`` None or whole is reduced once, after
    :func:`_pair_aggregate` of the pairs ``(en**q, ed**q)``.  A fractional
    ``qe`` takes each pair as ``en / ed``; a row with a float term reduces its
    pairs (``_pow`` does for a whole ``qe``).
    """
    if qe is not None and type(qe) is not int:
        terms = [_as_float(t) for t in terms]
    elif all(type(t) is tuple for t in terms):
        if qe is None:
            return _reduced(*_pair_aggregate(terms, False))
        return _reduced(*_pair_aggregate([(en ** qe, ed ** qe) for en, ed in terms if en], True))
    if qe is None:
        return max((_reduced(*t) if type(t) is tuple else t for t in terms), default=0)
    return _exact_or_fsum([_pow(t, qe) for t in terms if t != 0])


def _pair_aggregate(pairs: Iterable[tuple], summed: bool) -> tuple:
    """The sum (``summed``) or the max of the exact pairs ``(en, ed)``, as an
    unreduced pair: the max by cross-multiplication, ``(0, 1)`` when none is
    positive; the sum per distinct ``ed`` over the LCM of those."""
    if not summed:
        best = (0, 1)
        for t in pairs:
            if t[0] * best[1] > best[0] * t[1]:
                best = t
        return best
    sums: dict = {}
    for en, ed in pairs:
        sums[ed] = sums.get(ed, 0) + en
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


def _tail_stats(trajectory: Sequence[float], window: int, tolerance: float
                ) -> tuple[float, bool]:
    hi = trajectory[-1]
    w = min(window, len(trajectory) - 1)
    lo = trajectory[-1 - w] if w >= 1 else hi
    if math.isinf(hi):
        return math.inf, False
    delta = hi - lo
    return delta, abs(delta) <= tolerance


def _certify(contributions: Iterable, *, kind: str, space: SpaceConfig, summed: bool = False,
             outer_exponent=1, scale: float = 1.0, inner_ok: bool = True,
             q_sup: bool = False, notes: Iterable[str] = ()) -> BoundCertificate:
    """Certify the running supremum (or, ``summed``, sum) of the contributions.

    One contribution per outer index, ``None`` for an empty one; a sup scan
    also takes exact pairs ``(en, ed)`` and compares them by
    cross-multiplication, so no pair is reduced.  The value
    and its trajectory are raised to ``outer_exponent`` and multiplied by
    ``scale``; the final window (``_tail_stats``) decides convergence and
    divergence.  ``q_sup`` notes that the contributions aggregate their
    conjugate-exponent sums as suprema (p = 1).

    An upper reads ``inf`` when its scan overflows or diverges.  A lower or
    exact certificate (a sup scan) never does: a divergent scan keeps the
    largest value it scanned, an exact value beyond float range reads as the
    largest float, and a float contribution of ``inf``, which may come from an
    intermediate overflow, is skipped and leaves the scan unconverged.
    """
    lower = kind != "upper"
    ef = float(outer_exponent)
    plain = ef == 1.0 and scale == 1.0  # tf(x) is x for x > 0: _pow(x, 1.0) * 1.0

    def tf(x: float) -> float:
        return 0.0 if x <= 0.0 else x if plain else _pow(x, ef) * scale

    traj: list[float] = []
    attained, t, skipped = None, 0.0, False
    if summed:
        parts, level = [], 0.0
        for v in contributions:
            if v:
                parts.append(v)
                level += _safe_float(v)
                t = tf(level)
            traj.append(t)
        total = _exact_or_fsum(parts)
    else:
        best, level = None, 0.0
        for i, v in enumerate(contributions):
            if type(v) is float:
                if v > level or best is None:
                    if v == math.inf and lower:
                        skipped = True
                    else:
                        best = level = v
                        attained, t = i, v if plain and v > 0.0 else tf(v)
            elif v is not None and (best is None or _gt(v, best, level)):
                best, level, attained = v, _as_float(v), i
                t = tf(level)
            traj.append(t)
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
        if value > DIVERGENCE_CAP:
            diverged = True
            note_list.append(f"still growing past the cap {DIVERGENCE_CAP:g}")
        elif n_top >= 8:
            mid, quarter = traj[n_top // 2], traj[n_top // 4]
            d_last = hi - mid
            d_prev = mid - quarter
            if d_prev > 0.0 and d_last > tol and d_last >= DYADIC_GROWTH_RATIO * d_prev:
                diverged = True
                note_list.append(
                    "growth does not decay across dyadic windows; divergent scan"
                )

    if skipped:
        note_list.append("float contributions that overflowed to inf skipped")
    if not inner_ok:
        note_list.append("inner power sums truncated without certified decay")
    if q_sup:
        note_list.append("p=1: conjugate-exponent sums taken as suprema")

    if diverged and not lower:
        value, attained = math.inf, None
    elif math.isinf(value):  # an exact lower beyond float range
        value, attained = sys.float_info.max, None
    elif attained is not None and attained > max(n_top - space.tail_window, 0):
        attained = None
    return BoundCertificate(
        value=value, kind=kind, attained_at=attained,
        truncation_degree=space.truncation_degree, tail_delta=tail_delta,
        converged=settled and inner_ok and not (diverged or skipped),
        notes=tuple(note_list),
    )


def _kernel_sup(req: CriterionRequest, stride: int, scale: float, note: str
                ) -> BoundCertificate:
    """``scale`` times the sup over ``n`` of the q-aggregated kernel
    ``d(n) w(n) / (d(k) d(n-k) w(k) w((n-k)/stride))``, ``stride | n-k``.

    While the weights read are rational and ``q`` whole or p = 1, row ``n``
    is ``c(n) sum 1 / (c(k) b(n-k))`` (p = 1: the max) over the integer pairs
    ``c(i) = (d(i) w(i))**q`` and ``b(j) = (d(j) w(j/stride))**q``, powered
    once per index, aggregated by :func:`_pair_aggregate` and reduced once.
    While the ``d`` read are rational and the ``w`` plain floats, terms are
    built inline by the operations :func:`_pair` does on them.  Any other row
    takes the per-term :func:`_pair` route.  At stride 1 term ``n-k`` is term
    ``k`` bit for bit: the fast rows build ``k <= n/2``, mirrored for a sum.
    """
    beta, delta, space = req.beta, req.delta, req.space
    qe = None if space.sup_mode else _exponent(space.q)
    qp, qf = (1, 1.0) if qe is None else (qe, float(qe))

    def powered(x, y):
        return (x.numerator * y.numerator) ** qp, (x.denominator * y.denominator) ** qp

    def whole(terms, n):  # row n from its terms k <= n/2 at stride 1; a max reads only those
        return terms + terms[n % 2 - 2::-1] if stride == 1 and qe is not None else terms

    def rows():
        # Row n reads no index above n, so each weight is read once, in order.
        d, w, c, b, dn, dd = [], [], [], [], [], []
        factored, floats = qe is None or type(qe) is int, True
        for n in range(space.truncation_degree + 1):
            d.append(delta.value(n))
            w.append(beta.value(n))
            ks = range(n // 2 + 1) if stride == 1 else stride_offsets(n, stride)
            exact_d = isinstance(d[n], Rational)
            factored = factored and exact_d and isinstance(w[n], Rational)
            floats = floats and exact_d and type(w[n]) is float
            if factored:
                c.append(powered(d[n], w[n]))
                if n % stride == 0:
                    b.append(c[n] if stride == 1 else powered(d[n], w[n // stride]))
                # c(n) times the sum (p = 1: the max) of 1 / (c(k) b(n-k))
                num, den = _pair_aggregate(whole([(kd * jd, kn * jn) for (kn, kd), (jn, jd) in (
                    (c[k], b[(n - k) // stride]) for k in ks)], n), qe is not None)
                yield _reduced(c[n][0] * num, c[n][1] * den)
                continue
            if floats:
                dn.append(d[n].numerator)
                dd.append(d[n].denominator)
                wn, nn, nd = w[n], dn[n], dd[n]
                try:
                    terms = [nn * dd[k] * dd[n - k] / (nd * dn[k] * dn[n - k])
                             * (wn / (w[k] * w[(n - k) // stride])) for k in ks]
                    if qe is None:
                        agg, check = max(terms), sum(terms)
                    else:
                        agg = check = math.fsum(whole([t ** qf for t in terms], n))
                except (OverflowError, ZeroDivisionError):
                    check = math.nan
                # A nan term, a zero row or w(n) = 1.0 (exact terms): per-term route.
                if 0.0 < check and wn != 1.0:
                    yield agg
                    continue
            yield _q_pairs([
                _pair([d[n], w[n]], [d[k], d[n - k], w[k], w[(n - k) // stride]])
                for k in stride_offsets(n, stride)
            ], qe)

    return _certify(
        rows(), kind="upper", space=space,
        outer_exponent=1 if space.sup_mode else _exponent(1, space.q),
        scale=scale, q_sup=space.sup_mode, notes=(note,),
    )


def _power_sum_upper(req: CriterionRequest, table: PowerTable, shift: int, w: _ReadOnce,
                     row: Callable, note: str) -> BoundCertificate:
    """The p-summed bound: row ``n >= shift`` contributes ``row(n, j, agg)``,
    ``agg`` the q-aggregate of ``|theta(j, L)| / w(L)``, ``j = n - shift``,
    reading ``w(L)`` once per nonzero ``theta``, in the per-term order.

    Float rows over plain float weights are built inline, by the operations
    :func:`_pair` does, and summed by one ``fsum`` (p = 1: the max).  Exact
    rows over rational weights, ``q`` whole, take the :func:`_pair_aggregate`
    sum of ``|num|**q`` times the pair ``(w(L).den, den w(L).num)**q`` of each
    power, passed unreduced for ``row`` to reduce once.  Other rows, and float
    rows with a term of 1.0 (maybe an exact pair), an aggregate outside
    ``(0, inf)`` or an overflow, take the per-term ``_pair`` route."""
    space = req.space
    qe = None if space.sup_mode else _exponent(space.q)
    qf = None if qe is None else float(qe)
    float_rows = table.phi.mode == FLOAT
    powered: dict = {}
    inner_ok = True
    rows = [None] * min(shift, space.truncation_degree + 1)
    for n in range(shift, space.truncation_degree + 1):
        j = n - shift
        entries = table.column_scaled(j)
        nz = [e for e in entries if e[1]]
        agg = terms = None
        if float_rows and nz and all(type(w[L]) is float for L, _, _ in nz):
            try:
                terms = [abs(x) / w[L] if x else 0.0 for L, x, _ in entries]
                agg = max(terms) if qe is None else math.fsum([t ** qf for t in terms])
            except OverflowError:
                pass
            if agg is not None and not (0.0 < agg < math.inf and 1.0 not in terms):
                agg = terms = None
        elif not float_rows and nz and type(qe) is int:
            pairs = []
            for L, x, den in nz:
                pw = powered.get(L)
                if pw is None:
                    if not isinstance(w[L], Rational):
                        break
                    pw = powered[L] = (w[L].denominator ** qe, (den * w[L].numerator) ** qe)
                pairs.append((abs(x) ** qe * pw[0], pw[1]))
            else:
                agg = _pair_aggregate(pairs, True)
        if agg is None:
            terms = [(0, 1) if x == 0 else _pair([abs(x)], [w[L]], den) for L, x, den in entries]
            agg = _q_pairs(terms, qe)
        if _natural_power_cut(table.phi, j):
            last3 = terms[-3:] if terms is not None else [
                _pair([abs(x)], [w[L]], den) if x else 0.0 for L, x, den in entries[-3:]]
            inner_ok = inner_ok and _decayed([_as_float(t) for t in last3])
        rows.append(row(n, j, agg))
    return _certify(
        rows, kind="upper", space=space, summed=True,
        outer_exponent=_exponent(1, space.p), inner_ok=inner_ok, q_sup=space.sup_mode,
        notes=(note,),
    )


def _column_lower(req: CriterionRequest, column: Callable, note: str,
                  wf: Optional[_ReadOnce] = None) -> BoundCertificate:
    """The best ratio ``norm(image of z**l) / w(l)``; ``column(l)`` lists
    the ``(coefficient, float weight)`` pairs of that image, and ``wf``, the
    float weights the columns read, if they read any, serves ``w(l)``."""
    space = req.space
    pf = float(space.p)
    wf = _ReadOnce(req.beta.as_float) if wf is None else wf
    return _certify(
        [_float_pnorm(column(l), pf) / wf[l] for l in range(space.truncation_degree + 1)],
        kind="lower", space=space, notes=(note,),
    )


def column_lower_bound(T: OperatorMatrix, req: CriterionRequest) -> BoundCertificate:
    """Best ratio ``norm(T z**L) / w(L)`` over the monomial columns of ``T``,
    one per degree up to the truncation degree: always a valid lower bound
    on the operator norm."""
    N = req.space.truncation_degree
    if T.n_cols != N:
        raise ValidationError(
            f"the matrix has columns 0..{T.n_cols}, the truncation degree is {N}")
    wf = _ReadOnce(req.beta.as_float)
    return _column_lower(req, lambda L: [(value, wf[row]) for row, value in T.columns[L]],
                         "monomial column scan", wf)


def _zero_certificate(kind: str, space: SpaceConfig, note: str) -> BoundCertificate:
    return BoundCertificate(
        value=0.0, kind=kind, attained_at=None,
        truncation_degree=space.truncation_degree, tail_delta=0.0,
        converged=True, notes=(note,),
    )


def _operand(series, unit: Optional[str] = None):
    """``series`` itself, or with ``unit`` (what its degree is to the
    evaluator) the degree ``m`` it must have as the unit monomial ``z**m``.
    An absent ``series`` is rejected."""
    m = series.monomial_degree() if unit and series is not None else None
    if series is None or unit and m is None:
        raise ValidationError("this evaluator needs " + (
            f"a unit-monomial {unit}" if unit else "a substitution symbol (phi or stride)"))
    return m if unit else series


def _build_table(phi: PolynomialSymbol, degree_bound: int, max_power: int) -> PowerTable:
    if phi.monomial_degree() is None:
        _guard((_stored_degree(phi, degree_bound, max_power) + 1) * (max_power + 1),
               "power table")
    return PowerTable(phi, degree_bound=degree_bound, max_power=max_power)


def _natural_power_cut(phi: PolynomialSymbol, n: int) -> bool:
    """Whether the powers contributing at degree ``n`` run past the table's
    last power: ``phi(0) != 0``, unless ``phi`` is constant and ``n > 0``."""
    return phi.min_degree() == 0 and not (phi.degree == 0 and n > 0)


def composition_norm_monomial(req: CriterionRequest) -> BoundCertificate:
    """Exact norm of composition with a unit monomial: the weight-ratio sup.

    The operator sends ``z**n`` to ``z**(stride*n)``, so its norm is the
    supremum of ``w(stride*n) / w(n)``; the certificate scans it up to the
    truncation degree.
    """
    m = _operand(req.phi, "symbol degree (stride)")
    if m == 0:
        raise ValidationError(
            "constant symbol: use composition_bounds_polynomial with degree 0")
    beta, space = req.beta, req.space
    return _certify(
        _ratios([(1, beta.value(n * m), 1, 1, beta.value(n))
                 for n in range(space.truncation_degree + 1)]),
        kind="exact", space=space,
        notes=(f"weight-ratio supremum for the degree-{m} monomial symbol",),
    )


def _power_bounds(req: CriterionRequest, shift: int
                  ) -> tuple[BoundCertificate, BoundCertificate]:
    """Bounds for ``z**shift ◇ C_phi`` with a polynomial symbol ``phi``.

    Upper: p-summed kernels ``d(n) w(n) / (d(shift) d(j))``, ``j = n - shift``,
    times q-aggregated power coefficients.  Lower: best per-power column
    ratio of the shifted coefficient rows.  At shift 0 the multiplier
    ``z**0`` is the diamond unit, every kernel is 1 and no delta is read.
    """
    space, N = req.space, req.space.truncation_degree
    table = _build_table(_operand(req.phi), degree_bound=max(N - shift, 0), max_power=N)
    pe = _exponent(space.p)
    e = pe if space.sup_mode else _exponent(space.p, space.q)
    d, w = _ReadOnce(req.delta.value if shift else lambda n: 1), _ReadOnce(req.beta.value)
    pf, qf = float(pe), None if space.sup_mode else float(space.q)
    kernel = _ReadOnce(lambda j: _pair_parts([d[j + shift], w[j + shift]], [d[shift], d[j]]))

    def split_row(n, j):
        """``row(n, j, agg)`` from the kernel's and the terms' mantissas and
        powers of two, for a row where ``kern**p`` or ``agg`` leaves the
        normal float range though the row itself may not."""
        km, ke = _split([d[n], w[n]], [d[shift], d[j]])
        terms = [_split([abs(x)], [den, w[L]])
                 for L, x, den in table.column_scaled(j) if x]
        if not terms:
            return 0
        top = max(te for _, te in terms)
        ts = [tm * 2.0 ** (te - top) for tm, te in terms]
        s = max(ts) if qf is None else math.fsum([t ** qf for t in ts]) ** (1 / qf)
        ex = pf * (ke + top)
        whole = math.floor(ex)
        try:
            return math.ldexp((km * s) ** pf * 2.0 ** (ex - whole), whole)
        except OverflowError:
            return math.inf

    def row(n, j, agg):
        kern = _pair_of(*kernel[j])
        if type(agg) is tuple:
            if type(kern) is tuple and type(e) is int:  # the kernel folded in, reduced once
                return _reduced(kern[0] ** pe * agg[0] ** e, kern[1] ** pe * agg[1] ** e)
            agg = _reduced(*agg)
        if agg == 0 and type(agg) is not float:
            return 0
        try:
            kp, ap = _pow(kern, pe), _pow(agg, e)
            out = kp * ap
        except OverflowError:  # an exact kernel power beyond float range times a float
            return split_row(n, j)
        if type(out) is not float or (
                _TINY <= out < math.inf and _TINY <= kp and _TINY <= ap and _TINY <= agg):
            return out
        return split_row(n, j)  # a float factor lost its precision or its range

    upper_cert = _power_sum_upper(
        req, table, shift, w, row=row, note="shifted power-coefficient sum bound")

    def column(l):  # kern(j) |x| / den: the kernel's parts times |x|, as one _pair takes it
        pairs, den = table.row_nonzeros_scaled(l)  # a plain float kernel as |x|'s weight
        return [(x, num) if type(x) is float and en == ed * den == 1 and fden == 1.0
                else (_as_float(_pair_of(en * abs(x), ed * den, num, fden) if type(x) is int
                                else _pair_of(en, ed * den, num * abs(x), fden)), 1.0)
                for j, x in pairs for en, ed, num, fden in (kernel[j],)]

    lower_cert = _column_lower(req, column, "shifted monomial-image ratios")
    return upper_cert, lower_cert


def composition_bounds_polynomial(req: CriterionRequest
                                  ) -> tuple[BoundCertificate, BoundCertificate]:
    """Bounds for composition with a polynomial symbol: the shifted power-sum
    bounds of :func:`_power_bounds` at shift 0, where ``z**0`` is the diamond
    unit, so every kernel is 1 and no delta is read."""
    return _power_bounds(req, 0)


def substitution_bounds_monomial_symbol(req: CriterionRequest
                                        ) -> tuple[BoundCertificate, BoundCertificate]:
    """Bounds for ``u``-multiplied composition with a unit-monomial symbol.

    Upper: the stride-offset kernel sup, q-aggregated and scaled by the norm
    of ``u``.  Lower: the best shifted-column ratio using the coefficients
    of ``u`` along each column.
    """
    m = _operand(req.phi, "symbol degree (stride)")
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
        return [(_as_float(_pair([d[base + k], w[base + k], abs(c)], [d[base], d[k]])), 1.0)
                for k, c in enumerate(u.coeffs[:max(N - base + 1, 0)]) if c != 0]

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
    """Bounds for a unit-monomial multiplier ``u = z**shift`` with a
    polynomial symbol: the shifted power-sum bounds of :func:`_power_bounds`."""
    return _power_bounds(req, _operand(req.u, "multiplier degree (shift)"))


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
    m1 = _operand(req.u, "multiplier degree (shift)")
    m2 = _operand(req.phi, "symbol degree (stride)")
    if m2 == 0:
        raise ValidationError("the symbol degree (stride) must be at least 1")
    beta, delta, space = req.beta, req.delta, req.space
    N = space.truncation_degree

    ratios = _ratios([
        (delta.value(m1 + m * m2), beta.value(m1 + m * m2),
         delta.value(m1), delta.value(m * m2), beta.value(m))
        for m in range(N + 1)
    ])
    by_output = [None] * (m1 + m2 * N + 1)
    by_output[m1::m2] = ratios
    return (
        _certify(by_output, kind="upper", space=space,
                 notes=("progression ratio supremum by output degree",)),
        _certify(ratios, kind="lower", space=space,
                 notes=("progression ratio supremum by input degree",)),
    )
