"""Norm-bound evaluators for composition and weighted-substitution operators.

Each evaluator scans a truncated sup or sum, keeps the partial values exact
whenever the weights and exponents allow it, and packages the result as a
:class:`~fpsop.operators.BoundCertificate` with tail diagnostics.  A scan
that keeps growing through the final window is probed for divergence: the
value is reported as ``inf`` when it exceeds a cap or when the growth fails
to decay across dyadic windows; otherwise the partial value stands with
``converged=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Optional, Sequence

from .combinatorics import PowerTable, stride_offsets
from .operators import BoundCertificate, ResourceLimitError, _safe_float
from .series import PolynomialSymbol, TruncatedSeries, norm
from .weights import (
    DeltaSequence,
    SpaceConfig,
    ValidationError,
    WeightSequence,
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

TABLE_ENTRY_LIMIT = 10_000_000

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
        if not (isinstance(self.cap, (int, float)) and self.cap > 0):
            raise ValidationError("cap must be a positive real")
        if (self.stride is not None and self.phi is not None
                and self.phi.monomial_degree() != self.stride):
            raise ValidationError(
                f"stride={self.stride} conflicts with phi, which is not z**{self.stride}")
        if (self.shift is not None and self.u is not None
                and self.u.monomial_degree() != self.shift):
            raise ValidationError(
                f"shift={self.shift} conflicts with u, which is not z**{self.shift}")

    @property
    def power_limit(self) -> int:
        if self.inner_power_limit is not None:
            return self.inner_power_limit
        return self.space.truncation_degree


def _gt(a, b) -> bool:
    if isinstance(a, Rational) and isinstance(b, Rational):
        return a > b
    return _safe_float(a) > _safe_float(b)


def _pow(x, e):
    """x**e for nonnegative x; exact when x is rational and e a whole number."""
    if isinstance(e, int) and e >= 0 and isinstance(x, Rational):
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


def _ratio(nums: Sequence, dens: Sequence):
    """Product ratio of positive factors; exact when every factor is rational.

    Rational factors are collapsed exactly first, so huge or tiny exact
    weights (factorials and their reciprocals) cancel before any float is
    touched; only genuinely non-rational factors go through float products.
    """
    exact = Fraction(1)
    num, den = 1.0, 1.0
    for v in nums:
        if isinstance(v, Rational):
            exact *= Fraction(v)
        else:
            num *= _safe_float(v)
    for v in dens:
        if isinstance(v, Rational):
            exact /= Fraction(v)
        else:
            den *= _safe_float(v)
    if exact.denominator == 1 and num == 1.0 and den == 1.0:
        out = exact
        return int(out) if out.denominator == 1 else out
    if num == 1.0 and den == 1.0:
        return exact
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


def _whole_exponent(e):
    """Collapse an exact exponent to int when possible, else float."""
    if isinstance(e, Rational):
        f = Fraction(e)
        return int(f) if f.denominator == 1 else float(f)
    return float(e)


class _SupScan:
    """Running supremum over an outer index, with first-attainment tracking."""

    def __init__(self):
        self.best = None
        self.best_f = 0.0
        self.attained: Optional[int] = None
        self.traj: list[float] = []

    def add(self, index: int, value=None) -> None:
        if value is not None and (self.best is None or _gt(value, self.best)):
            self.best = value
            self.best_f = _safe_float(value)
            self.attained = index
        self.traj.append(self.best_f)

    def final(self):
        return 0 if self.best is None else self.best


class _SumScan:
    """Running sum over an outer index; exact until a float term arrives."""

    def __init__(self):
        self.parts: list = []
        self.run = 0.0
        self.traj: list[float] = []

    def add(self, index: int, value=0) -> None:
        if value != 0:
            self.parts.append(value)
            self.run += _safe_float(value)
        self.traj.append(self.run)

    def final(self):
        if all(isinstance(v, Rational) for v in self.parts):
            return sum(self.parts, 0)
        return math.fsum(_safe_float(v) for v in self.parts)


def _decayed(last3: Sequence[float]) -> bool:
    """Geometric-decay test on the trailing inner-sum terms."""
    if last3 and last3[-1] == 0.0:
        return True
    if len(last3) < 3:
        return False
    a, b, c = last3[-3:]
    return c <= DECAY_RATIO * b and b <= DECAY_RATIO * a


def _finalize(scan, *, kind: str, space: SpaceConfig, cap: float,
              outer_exponent=1, scale: float = 1.0, sum_scan: bool = False,
              inner_ok: bool = True, notes: Iterable[str] = ()
              ) -> BoundCertificate:
    """Turn a finished scan into a certificate with divergence analysis."""
    ef = float(_whole_exponent(outer_exponent))

    def tf(x: float) -> float:
        if math.isinf(x):
            return math.inf
        if x <= 0.0:
            return 0.0
        try:
            return (x ** ef) * scale
        except OverflowError:
            return math.inf

    traj = [tf(x) for x in scan.traj]
    raw_final = scan.final()
    value = tf(_safe_float(raw_final))
    note_list = list(notes)
    tol = space.tolerance
    n_top = len(traj) - 1
    w = min(space.tail_window, n_top)
    hi = traj[-1]
    lo = traj[-1 - w] if w >= 1 else hi
    if math.isinf(hi):
        tail_delta = math.inf
    else:
        tail_delta = hi - lo

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
        return BoundCertificate(
            value=math.inf, kind=kind, attained_at=None,
            truncation_degree=space.truncation_degree,
            tail_delta=tail_delta, converged=False, notes=tuple(note_list),
        )

    attained = None
    if not sum_scan and getattr(scan, "attained", None) is not None:
        attained = scan.attained if scan.attained <= n_top - w else None
    converged = abs(tail_delta) <= tol and inner_ok and not math.isinf(value)
    return BoundCertificate(
        value=value, kind=kind, attained_at=attained,
        truncation_degree=space.truncation_degree,
        tail_delta=tail_delta, converged=converged, notes=tuple(note_list),
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


def _stride_of(req: CriterionRequest) -> int:
    if req.stride is not None:
        return req.stride
    if req.phi is not None:
        m = req.phi.monomial_degree()
        if m is not None:
            return m
    raise ValidationError("this evaluator needs a unit-monomial symbol degree (stride)")


def _shift_of(req: CriterionRequest) -> int:
    if req.shift is not None:
        return req.shift
    if req.u is not None:
        m = req.u.monomial_degree()
        if m is not None:
            return m
    raise ValidationError("this evaluator needs a unit-monomial multiplier degree (shift)")


def _build_table(phi: PolynomialSymbol, degree_bound: int, max_power: int) -> PowerTable:
    if phi.monomial_degree() is None:
        estimate = (degree_bound + 1) * (max_power + 1)
        if estimate > TABLE_ENTRY_LIMIT:
            raise ResourceLimitError(
                f"power table needs ~{estimate} entries; the guard allows {TABLE_ENTRY_LIMIT}"
            )
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
    scan = _SupScan()
    for n in range(space.truncation_degree + 1):
        scan.add(n, _ratio([beta.value(n * m)], [beta.value(n)]))
    return _finalize(
        scan, kind="exact", space=space, cap=req.cap,
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
    L_max = req.power_limit
    p, q = space.p, space.q
    table = _build_table(phi, degree_bound=N, max_power=max(L_max, N))

    inner_ok = True
    upper = _SumScan()
    for n in range(N + 1):
        rng = table.power_range(n)
        last3: list[float] = []
        terms = []
        for L in rng:
            if L > L_max:
                break
            th = table.theta(n, L)
            if th == 0:
                t = 0
            else:
                t = _ratio([abs(th), beta.value(n)], [beta.value(L)])
            last3 = (last3 + [_safe_float(t)])[-3:]
            terms.append(t)
        if _natural_power_cut(phi, n, L_max) and not _decayed(last3):
            inner_ok = False
        if space.sup_mode:
            agg = max(terms, default=0)
            contribution = _pow(agg, space.p if isinstance(space.p, int) else float(space.p))
        else:
            qe = _whole_exponent(q)
            inner = [_pow(t, qe) for t in terms if t != 0]
            s = sum(inner, 0) if all(isinstance(v, Rational) for v in inner) \
                else math.fsum(_safe_float(v) for v in inner)
            pq = _whole_exponent(Fraction(p) / Fraction(q)) if (
                isinstance(p, Rational) and isinstance(q, Rational)
            ) else float(p) / float(q)
            contribution = _pow(s, pq)
        upper.add(n, contribution)
    upper_cert = _finalize(
        upper, kind="upper", space=space, cap=req.cap,
        outer_exponent=Fraction(1, 1) / Fraction(p) if isinstance(p, Rational) else 1.0 / float(p),
        sum_scan=True, inner_ok=inner_ok,
        notes=("power-coefficient sum bound",),
    )

    lower = _SupScan()
    pf = float(p)
    for n in range(N + 1):
        total = []
        if n <= table.max_power:
            for j, th in table.row_nonzeros(n):
                x = abs(_safe_float(th)) * beta.as_float(j)
                try:
                    total.append(x ** pf)
                except OverflowError:
                    total.append(math.inf)
        s = math.fsum(total) if total else 0.0
        contribution = (s ** (1.0 / pf) if not math.isinf(s) else math.inf)
        lower.add(n, contribution / beta.as_float(n))
    lower_cert = _finalize(
        lower, kind="lower", space=space, cap=req.cap,
        notes=("monomial image ratios, rows truncated at the scan degree",),
    )
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
    p, q = space.p, space.q
    unorm = norm(u, beta, float(p))
    if unorm == 0.0:
        zero = _zero_certificate("upper", space, "zero multiplier series")
        return zero, _zero_certificate("lower", space, "zero multiplier series")

    upper = _SupScan()
    for n in range(N + 1):
        terms = []
        for k in stride_offsets(n, m):
            t = _ratio(
                [delta.value(n), beta.value(n)],
                [delta.value(k), delta.value(n - k), beta.value(k),
                 beta.value((n - k) // m)],
            )
            terms.append(t)
        if space.sup_mode:
            contribution = max(terms, default=0)
        else:
            qe = _whole_exponent(q)
            pows = [_pow(t, qe) for t in terms if t != 0]
            contribution = sum(pows, 0) if all(isinstance(v, Rational) for v in pows) \
                else math.fsum(_safe_float(v) for v in pows)
        upper.add(n, contribution)
    q_inv = 1 if space.sup_mode else (
        Fraction(1, 1) / Fraction(q) if isinstance(q, Rational) else 1.0 / float(q)
    )
    upper_cert = _finalize(
        upper, kind="upper", space=space, cap=req.cap,
        outer_exponent=q_inv, scale=unorm,
        notes=("stride-offset kernel supremum times the multiplier norm",),
    )

    lower = _SupScan()
    pf = float(p)
    u_top = max((i for i, c in enumerate(u.coeffs) if c != 0), default=0)
    for l in range(N + 1):
        base = m * l
        total = []
        if base <= N:
            for k in range(0, min(u_top, N - base) + 1):
                c = u.coeffs[k] if k < len(u.coeffs) else 0
                if c == 0:
                    continue
                n = base + k
                t = _ratio(
                    [delta.value(n), beta.value(n), abs(c)],
                    [delta.value(base), delta.value(k)],
                )
                tf = _safe_float(t)
                try:
                    total.append(tf ** pf)
                except OverflowError:
                    total.append(math.inf)
        s = math.fsum(total) if total else 0.0
        contribution = (s ** (1.0 / pf) if not math.isinf(s) else math.inf)
        lower.add(l, contribution / beta.as_float(l))
    lower_cert = _finalize(
        lower, kind="lower", space=space, cap=req.cap,
        notes=("shifted-column ratios from the multiplier coefficients",),
    )
    return upper_cert, lower_cert


def multiplier_algebra_bound(req: CriterionRequest) -> BoundCertificate:
    """The algebra constant: q-aggregated diamond-kernel weight sup.

    Certifies ``norm(f ⟡ g) <= value * norm(f) * norm(g)``; finite values
    make the space a unital commutative normed algebra under the diamond
    product (after scaling by the constant).
    """
    beta, delta, space = req.beta, req.delta, req.space
    N = space.truncation_degree
    q = space.q
    scan = _SupScan()
    for n in range(N + 1):
        terms = []
        for k in range(n + 1):
            t = _ratio(
                [delta.value(n), beta.value(n)],
                [delta.value(k), delta.value(n - k), beta.value(k), beta.value(n - k)],
            )
            terms.append(t)
        if space.sup_mode:
            contribution = max(terms, default=0)
        else:
            qe = _whole_exponent(q)
            pows = [_pow(t, qe) for t in terms if t != 0]
            contribution = sum(pows, 0) if all(isinstance(v, Rational) for v in pows) \
                else math.fsum(_safe_float(v) for v in pows)
        scan.add(n, contribution)
    q_inv = 1 if space.sup_mode else (
        Fraction(1, 1) / Fraction(q) if isinstance(q, Rational) else 1.0 / float(q)
    )
    return _finalize(
        scan, kind="upper", space=space, cap=req.cap, outer_exponent=q_inv,
        notes=("diamond-kernel weight supremum (algebra constant)",),
    )


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
    L_max = req.power_limit
    p, q = space.p, space.q
    row_top = max(N - shift, 0)
    table = _build_table(phi, degree_bound=row_top, max_power=max(L_max, N))

    inner_ok = True
    upper = _SumScan()
    for n in range(N + 1):
        if n < shift:
            upper.add(n)
            continue
        j = n - shift
        rng = table.power_range(j)
        last3: list[float] = []
        terms = []
        for L in rng:
            if L > L_max:
                break
            th = table.theta(j, L)
            t = 0 if th == 0 else _ratio([abs(th)], [beta.value(L)])
            last3 = (last3 + [_safe_float(t)])[-3:]
            terms.append(t)
        if _natural_power_cut(phi, j, L_max) and not _decayed(last3):
            inner_ok = False
        kern = _ratio(
            [delta.value(n), beta.value(n)], [delta.value(shift), delta.value(j)]
        )
        pe = _whole_exponent(p)
        if space.sup_mode:
            agg = max(terms, default=0)
            contribution = _pow(kern, pe) * _pow(agg, pe) if agg != 0 else 0
        else:
            qe = _whole_exponent(q)
            pows = [_pow(t, qe) for t in terms if t != 0]
            s = sum(pows, 0) if all(isinstance(v, Rational) for v in pows) \
                else math.fsum(_safe_float(v) for v in pows)
            pq = _whole_exponent(Fraction(p) / Fraction(q)) if (
                isinstance(p, Rational) and isinstance(q, Rational)
            ) else float(p) / float(q)
            contribution = _pow(kern, pe) * _pow(s, pq) if s != 0 else 0
        upper.add(n, contribution)
    upper_cert = _finalize(
        upper, kind="upper", space=space, cap=req.cap,
        outer_exponent=Fraction(1, 1) / Fraction(p) if isinstance(p, Rational) else 1.0 / float(p),
        sum_scan=True, inner_ok=inner_ok,
        notes=("shifted power-coefficient sum bound",),
    )

    lower = _SupScan()
    pf = float(p)
    for l in range(N + 1):
        total = []
        if l <= table.max_power:
            for j, th in table.row_nonzeros(l):
                n = j + shift
                t = _ratio(
                    [delta.value(n), beta.value(n), abs(th)],
                    [delta.value(shift), delta.value(j)],
                )
                tf = _safe_float(t)
                try:
                    total.append(tf ** pf)
                except OverflowError:
                    total.append(math.inf)
        s = math.fsum(total) if total else 0.0
        contribution = (s ** (1.0 / pf) if not math.isinf(s) else math.inf)
        lower.add(l, contribution / beta.as_float(l))
    lower_cert = _finalize(
        lower, kind="lower", space=space, cap=req.cap,
        notes=("shifted monomial-image ratios",),
    )
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

    upper, lower = _SupScan(), _SupScan()
    for m in range(N + 1):
        n = m1 + m * m2
        t = _ratio(
            [delta.value(n), beta.value(n)],
            [delta.value(m1), delta.value(m * m2), beta.value(m)],
        )
        for gap in range(len(upper.traj), n):
            upper.add(gap)
        upper.add(n, t)
        lower.add(m, t)
    upper_cert = _finalize(
        upper, kind="upper", space=space, cap=req.cap,
        notes=("progression ratio supremum by output degree",),
    )
    lower_cert = _finalize(
        lower, kind="lower", space=space, cap=req.cap,
        notes=("progression ratio supremum by input degree",),
    )
    return upper_cert, lower_cert
