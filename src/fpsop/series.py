"""Truncated formal power series: products, composition, and weighted norms.

A series is a finite coefficient vector ``c[0..N]`` understood as the cut of
a formal power series at degree ``N``.  Every series carries one scalar mode:
``exact`` (ints and Fractions) or ``float``; the two never mix inside one
computation, so algebra identities can be asserted with ``==`` in exact mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Optional, Sequence, Union

from .weights import (DeltaSequence, ValidationError, WeightSequence, _delta_reads, _Frozen,
                      _safe_float)

__all__ = [
    "EXACT",
    "FLOAT",
    "ModeMismatchError",
    "PolynomialSymbol",
    "TruncatedSeries",
    "cauchy_product",
    "compose",
    "diamond_product",
    "diamond_substitute",
    "norm",
]

EXACT = "exact"
FLOAT = "float"

Scalar = Union[int, Fraction, float]

_NOT_FINITE = "coefficients must be finite"


class ModeMismatchError(ValidationError):
    """Two operands mix exact and float scalars."""


def _normalize(coeffs) -> tuple[tuple, str]:
    out = list(coeffs)
    if not out:
        raise ValidationError("a series needs at least the constant coefficient")
    has_float = False
    for c in out:
        if isinstance(c, bool) or not isinstance(c, (int, float, Fraction)):
            raise ValidationError(f"coefficients must be numbers, got {type(c).__name__}")
        if isinstance(c, float):
            if not math.isfinite(c):
                raise ValidationError(_NOT_FINITE)
            has_float = True
    if has_float:
        if any(type(c) is not float for c in out):
            out = [_safe_float(c) for c in out]
            if math.inf in out:  # an exact entry beyond float range
                raise ValidationError(_NOT_FINITE)
        return tuple(out), FLOAT
    return tuple(out), EXACT


def _monomial_degree(coeffs: Sequence) -> Optional[int]:
    """m when ``coeffs`` are those of z**m (unit coefficient), else None."""
    hit = None
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if c != 1 or hit is not None:
            return None
        hit = i
    return hit


def _require_same_mode(f: "TruncatedSeries", g: "TruncatedSeries") -> str:
    if f.mode != g.mode:
        raise ModeMismatchError(
            f"cannot combine a {f.mode} series with a {g.mode} series; convert explicitly"
        )
    return f.mode


class TruncatedSeries(_Frozen):
    """Coefficients ``c[0..N]`` of a power series cut at degree ``N``."""

    _fields = ("coeffs", "mode")

    def __init__(self, coeffs: tuple = (0,)):
        self._set(*_normalize(coeffs))

    @classmethod
    def from_coeffs(cls, seq: Iterable[Scalar], degree_bound: Optional[int] = None
                    ) -> "TruncatedSeries":
        """Build a series, padding or cutting to ``degree_bound`` if given."""
        coeffs = list(seq)
        if degree_bound is not None:
            if degree_bound < 0:
                raise ValidationError("degree_bound must be nonnegative")
            if len(coeffs) > degree_bound + 1:
                coeffs = coeffs[: degree_bound + 1]
            else:
                pad = 0.0 if any(isinstance(c, float) for c in coeffs) else 0
                coeffs = coeffs + [pad] * (degree_bound + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def unity(cls, degree_bound: int = 0) -> "TruncatedSeries":
        return cls((1,) + (0,) * degree_bound)

    @classmethod
    def monomial(cls, m: int) -> "TruncatedSeries":
        if m < 0:
            raise ValidationError("monomial degree must be nonnegative")
        return cls((0,) * m + (1,))

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def pad(self, degree_bound: int) -> "TruncatedSeries":
        if degree_bound < self.degree_bound:
            raise ValidationError("pad cannot shrink a series")
        zero = 0.0 if self.mode == FLOAT else 0
        return TruncatedSeries(self.coeffs + (zero,) * (degree_bound - self.degree_bound))

    def monomial_degree(self) -> Optional[int]:
        """m when the series is exactly z**m (unit coefficient), else None."""
        return _monomial_degree(self.coeffs)

    def to_float(self) -> "TruncatedSeries":
        """The series in float mode; an exact coefficient beyond float range
        is rejected, as a non-finite float coefficient is."""
        return TruncatedSeries(tuple(map(_safe_float, self.coeffs)))

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _require_same_mode(self, other)
        n = max(self.degree_bound, other.degree_bound)
        a, b = self.pad(n).coeffs, other.pad(n).coeffs
        return TruncatedSeries(tuple(x + y for x, y in zip(a, b)))

    def __mul__(self, scalar):
        if isinstance(scalar, bool) or not isinstance(scalar, (int, float, Fraction)):
            return NotImplemented
        return TruncatedSeries(tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__


class PolynomialSymbol(_Frozen):
    """A polynomial substitution symbol ``a0 + a1 z + ... + ad z^d``.

    The top coefficient must be nonzero unless the degree is zero, so the
    stored degree is honest; ``from_coeffs`` trims trailing zeros for you.
    """

    _fields = ("alphas", "mode")

    def __init__(self, alphas: tuple = (0,)):
        alphas, mode = _normalize(alphas)
        if len(alphas) > 1 and alphas[-1] == 0:
            raise ValidationError(
                "top polynomial coefficient is zero; use from_coeffs to trim"
            )
        self._set(alphas, mode)

    @classmethod
    def from_coeffs(cls, seq: Iterable[Scalar]) -> "PolynomialSymbol":
        coeffs = list(seq)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @classmethod
    def monomial(cls, m: int) -> "PolynomialSymbol":
        if m < 0:
            raise ValidationError("monomial degree must be nonnegative")
        return cls((0,) * m + (1,))

    @property
    def degree(self) -> int:
        return len(self.alphas) - 1

    def monomial_degree(self) -> Optional[int]:
        """m when the symbol is exactly z**m (unit coefficient), else None."""
        return _monomial_degree(self.alphas)

    def min_degree(self) -> Optional[int]:
        """Smallest degree with a nonzero coefficient; None for the zero symbol."""
        return next((i for i, a in enumerate(self.alphas) if a != 0), None)


def _float_pnorm(pairs: Sequence[tuple], pf: float) -> float:
    """``(sum |c * w|^p)^(1/p)`` in floats over ``(coefficient, float weight)``
    pairs; a coefficient, term or norm beyond float range makes it ``inf``.
    Terms whose p-th powers sum below ``2**-960``, where they would lose bits
    to the subnormal range, or past float range, are scaled by a power of two
    first, the largest to ``[1/2, 1)``, which is exact, and the norm scaled
    back."""
    try:
        total = math.fsum([(abs(c if type(c) is float else float(c)) * w) ** pf
                           for c, w in pairs])
    except OverflowError:  # an exact coefficient, a p-th power or the sum
        total = math.inf
    if not (total < 2.0 ** -960 or math.isinf(total)):
        return total ** (1.0 / pf)
    try:
        xs = [abs(float(c)) * w for c, w in pairs]
        e = math.frexp(max(xs, default=0.0))[1]
        return math.ldexp(math.fsum([math.ldexp(x, -e) ** pf for x in xs]) ** (1.0 / pf), e)
    except OverflowError:  # an exact coefficient or the norm
        return math.inf


def norm(f: TruncatedSeries, beta: WeightSequence, p) -> float:
    """The weighted p-norm ``(sum |c_n|^p w(n)^p)^(1/p)`` as a float.

    Exact coefficients are converted to float before the root is taken; one
    beyond float range makes the norm ``inf``.
    """
    pf = float(p)
    if not math.isfinite(pf) or pf < 1:
        raise ValidationError(f"norm exponent must satisfy 1 <= p < inf, got {p!r}")
    return _float_pnorm(
        [(c, beta.as_float(n)) for n, c in enumerate(f.coeffs) if c != 0], pf)


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """Exact ``values`` as integer numerators over the LCM of their denominators."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _exact(num: int, den: int):
    """``num / den``: an int when ``den`` is 1 or ``num`` is 0, else a Fraction."""
    return num if den == 1 or not num else Fraction(num, den)


def _convolve(a: Sequence, b: Sequence, degree_bound: int, zero=0) -> list:
    """Plain convolution of integer or float lists, ``degree_bound + 1``
    entries long: one slice of ``a``'s nonzero span per nonzero entry of
    ``b``, from the last, so each output entry starts from ``zero`` and adds
    its terms in order of the index into ``a``.  A zero float operand adds
    ``±0.0`` to an entry that is never ``-0.0``, so no bit depends on
    skipping it.  The exact products run on integers: their operands are
    scaled to integer numerators over one common denominator (``_scaled``),
    and each output entry is reduced to a ``Fraction`` once, at the end
    (Knuth, TAOCP vol. 2, 4.5.1, on delaying gcd reductions).
    """
    size = max(degree_bound + 1, 0)
    out = [zero] * size
    lo = next((i for i, x in enumerate(a) if x), len(a))
    hi = len(a) - next((i for i, x in enumerate(reversed(a)) if x), 0)
    for j in range(min(len(b), size - lo) - 1, -1, -1):
        y = b[j]
        if y:
            seg = a[lo:min(hi, size - j)]
            start, end = j + lo, j + lo + len(seg)
            out[start:end] = [o + x * y for o, x in zip(out[start:end], seg)]
    return out


def _stored_degree(phi: "PolynomialSymbol", degree_bound: int, max_power: int) -> int:
    """The top degree of ``phi**L`` for ``L <= max_power``, at most ``degree_bound``."""
    return min(degree_bound, phi.degree * max_power)


def _power_rows(phi: "PolynomialSymbol", degree_bound: int, max_power: int
                ) -> list[tuple[tuple, int]]:
    """Coefficients of ``phi**L`` up to ``degree_bound`` for ``L = 0..max_power``,
    as ``(numerators, denominator)`` per row.

    Float rows are running float products over 1; a power that leaves float
    range is rejected, as a series with such a coefficient is.  Exact row
    ``L`` is ``(D*phi)**L`` in integers over ``D**L``, ``D`` the LCM of the
    denominators of ``phi``, left unreduced.
    """
    if phi.mode == FLOAT:
        row = [1.0] + [0.0] * degree_bound
        rows = [(tuple(row), 1)]
        for _ in range(max_power):
            row = _convolve(row, phi.alphas, degree_bound, 0.0)
            if not all(map(math.isfinite, row)):
                raise ValidationError(_NOT_FINITE)
            rows.append((tuple(row), 1))
        return rows
    base, lcm = _scaled(phi.alphas)
    nums, den = [1] + [0] * degree_bound, 1
    rows = [(tuple(nums), den)]
    for _ in range(max_power):
        nums = _convolve(nums, base, degree_bound)
        den *= lcm
        rows.append((tuple(nums), den))
    return rows


def cauchy_product(f: TruncatedSeries, g: TruncatedSeries, degree_bound: int
                   ) -> TruncatedSeries:
    """Plain convolution of two series, truncated at ``degree_bound``."""
    if _require_same_mode(f, g) == FLOAT:
        return TruncatedSeries(tuple(_convolve(f.coeffs, g.coeffs, degree_bound, 0.0)))
    fn, fd = _scaled(f.coeffs[:degree_bound + 1])
    gn, gd = _scaled(g.coeffs[:degree_bound + 1])
    den = fd * gd
    fn, gn = sorted((fn, gn), key=len, reverse=True)  # one slice per entry of the shorter
    return TruncatedSeries(tuple(_exact(x, den) for x in _convolve(fn, gn, degree_bound)))


def diamond_product(f: TruncatedSeries, g: TruncatedSeries, delta: DeltaSequence,
                    degree_bound: int) -> TruncatedSeries:
    """Weighted convolution: term (k, n-k) is scaled by d(n)/(d(k) d(n-k)).

    With ``d(n) = r**n`` (``delta.kernel_free``) every kernel is 1: this is
    the plain Cauchy product, and no ``d`` is read (each reads as 1).  The
    operation is commutative, associative, and bilinear, with the constant
    series one as its unity; in exact mode those identities hold exactly.

    Exact mode computes ``d · ((f/d) * (g/d))``: one integer convolution of
    the operands divided by ``d``, each output degree ``n`` then multiplied by
    ``d(n)``.  ``d(n)`` is read for the degrees that carry a nonzero term, in
    ascending order, before the ``d(k)`` of the operands, so a short explicit
    list fails at the first such degree beyond it.  A ``d`` value that is not
    rational (only a custom ``DeltaSequence`` yields one) makes the product a
    float product of the operands converted to float.
    """
    mode, free, read = _require_same_mode(f, g), delta.kernel_free, _delta_reads(delta)
    fc, gc = f.coeffs, g.coeffs
    if mode == FLOAT:
        out = []
        for n in range(degree_bound + 1):
            lo, hi = max(0, n - len(gc) + 1), min(n, len(fc) - 1)
            terms = []
            for k in range(lo, hi + 1):
                a, b = fc[k], gc[n - k]
                if a and b:
                    terms.append(a * b if free else _safe_float(delta.kernel(n, k)) * a * b)
            try:
                out.append(math.fsum(terms) if terms else 0.0)
            except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
                raise ValidationError(_NOT_FINITE) from None
        return TruncatedSeries(tuple(out))
    size = degree_bound + 1
    fs = [k for k, a in enumerate(fc[:size]) if a]
    gs = [j for j, b in enumerate(gc[:size]) if b]
    live, fmask = 0, sum(1 << k for k in fs)
    for j in gs:
        live |= fmask << j
    d = {n: read(n) for n in range(size) if live >> n & 1}
    # Only operand degrees that reach an output degree <= degree_bound.
    fs = [k for k in fs if k + gs[0] < size] if gs else []
    gs = [j for j in gs if j + fs[0] < size] if fs else []
    for i in fs + gs:
        if i not in d:
            d[i] = read(i)
    if not all(isinstance(v, Rational) for v in d.values()):
        return diamond_product(f.to_float(), g.to_float(), delta, degree_bound)

    def over_d(cs, idx):  # cs[i] / d(i), as _scaled gives the reduced quotients
        dens = {i: cs[i].denominator * d[i].numerator for i in idx}
        den, nums = math.lcm(*dens.values()), [0] * size
        for i, q in dens.items():
            nums[i] = cs[i].numerator * d[i].denominator * (den // q)
        g = math.gcd(den, *nums)  # den // g: the LCM of the reduced denominators
        return [x // g for x in nums], den // g

    (an, ad), (bn, bd) = over_d(fc, fs), over_d(gc, gs)
    den = ad * bd
    return TruncatedSeries(tuple(
        _exact(d[n].numerator * c, d[n].denominator * den) if c else 0
        for n, c in enumerate(_convolve(an, bn, degree_bound))))


def compose(f: TruncatedSeries, phi: PolynomialSymbol, degree_bound: int
            ) -> TruncatedSeries:
    """Substitute the polynomial ``phi`` into ``f``, truncating the result.

    Linear in ``f``.  The result is float whenever either operand is float;
    floats accumulate the float powers of ``phi`` from :func:`_power_rows` (a
    power beyond float range is rejected, even at a zero coefficient of
    ``f``), while exact operands are evaluated by Horner's rule in integers
    scaled by the denominators of ``f`` and ``phi``.
    """
    min_deg = phi.min_degree()
    if min_deg is None:
        top = 0
    elif min_deg == 0:
        top = len(f.coeffs) - 1
    else:
        top = min(len(f.coeffs) - 1, degree_bound // min_deg)
    if f.mode == FLOAT or phi.mode == FLOAT:
        fc = f.to_float().coeffs
        # from_coeffs trims an exact top coefficient that rounds to 0.0.
        base = PolynomialSymbol.from_coeffs(map(_safe_float, phi.alphas))
        powers = _power_rows(base, _stored_degree(base, degree_bound, top), top)
        acc = [0.0] * (degree_bound + 1)
        acc[0] = fc[0]
        for c, (power, _) in zip(fc[1:top + 1], powers[1:]):
            if c:
                for n, x in enumerate(power):
                    if x:
                        acc[n] += c * x
        return TruncatedSeries(tuple(acc))
    fc = f.coeffs
    while top and not fc[top]:
        top -= 1
    fn, fd = _scaled(fc[:top + 1])
    pn, pd = _scaled(phi.alphas)
    acc, scale = [fn[top]] + [0] * degree_bound, 1
    for exp in range(top - 1, -1, -1):
        acc = _convolve(acc, pn, degree_bound)
        scale *= pd
        acc[0] += fn[exp] * scale
    den = fd * scale
    return TruncatedSeries(tuple(_exact(x, den) for x in acc))


def diamond_substitute(u: TruncatedSeries, f: TruncatedSeries, phi: PolynomialSymbol,
                       delta: DeltaSequence, degree_bound: int) -> TruncatedSeries:
    """Apply the substitution-then-multiply operator: ``u ⟡ (f o phi)``.

    Equals the matrix route: building the substitution matrix and applying it
    to ``f`` gives the same truncated coefficients.
    """
    composed = compose(f, phi, degree_bound)
    return diamond_product(u, composed, delta, degree_bound)
