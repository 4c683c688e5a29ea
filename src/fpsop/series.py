"""Truncated formal power series: products, composition, and weighted norms.

A series is a finite coefficient vector ``c[0..N]`` understood as the cut of
a formal power series at degree ``N``.  Every series carries one scalar mode:
``exact`` (ints and Fractions) or ``float``; the two never mix inside one
computation, so algebra identities can be asserted with ``==`` in exact mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Optional, Sequence, Union

from .weights import DeltaSequence, ValidationError, WeightSequence, _safe_float

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


def _require_same_mode(f: "TruncatedSeries", g: "TruncatedSeries") -> str:
    if f.mode != g.mode:
        raise ModeMismatchError(
            f"cannot combine a {f.mode} series with a {g.mode} series; convert explicitly"
        )
    return f.mode


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients ``c[0..N]`` of a power series cut at degree ``N``."""

    coeffs: tuple = (0,)
    mode: str = field(init=False)

    def __post_init__(self):
        coeffs, mode = _normalize(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "mode", mode)

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
                pad = 0
                if any(isinstance(c, float) for c in coeffs):
                    pad = 0.0
                coeffs = coeffs + [pad] * (degree_bound + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def unity(cls, degree_bound: int = 0) -> "TruncatedSeries":
        return cls((1,) + (0,) * degree_bound)

    @classmethod
    def monomial(cls, m: int, degree_bound: Optional[int] = None) -> "TruncatedSeries":
        if m < 0:
            raise ValidationError("monomial degree must be nonnegative")
        n = m if degree_bound is None else degree_bound
        if n < m:
            raise ValidationError("degree_bound is smaller than the monomial degree")
        return cls((0,) * m + (1,) + (0,) * (n - m))

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
        hit = None
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if c != 1 or hit is not None:
                return None
            hit = i
        return hit

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coeffs)

    def to_float(self) -> "TruncatedSeries":
        return TruncatedSeries(self.as_floats())

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _require_same_mode(self, other)
        n = max(self.degree_bound, other.degree_bound)
        a, b = self.pad(n).coeffs, other.pad(n).coeffs
        return TruncatedSeries(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, scalar):
        if isinstance(scalar, bool) or not isinstance(scalar, (int, float, Fraction)):
            return NotImplemented
        return TruncatedSeries(tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__


@dataclass(frozen=True)
class PolynomialSymbol:
    """A polynomial substitution symbol ``a0 + a1 z + ... + ad z^d``.

    The top coefficient must be nonzero unless the degree is zero, so the
    stored degree is honest; ``from_coeffs`` trims trailing zeros for you.
    """

    alphas: tuple = (0,)
    mode: str = field(init=False)

    def __post_init__(self):
        alphas, mode = _normalize(self.alphas)
        if len(alphas) > 1 and alphas[-1] == 0:
            raise ValidationError(
                "top polynomial coefficient is zero; use from_coeffs to trim"
            )
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "mode", mode)

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
        hit = None
        for i, a in enumerate(self.alphas):
            if a == 0:
                continue
            if a != 1 or hit is not None:
                return None
            hit = i
        return hit

    def min_degree(self) -> Optional[int]:
        """Smallest degree with a nonzero coefficient; None for the zero symbol."""
        for i, a in enumerate(self.alphas):
            if a != 0:
                return i
        return None


def _nonneg_fsum(values: Iterable[float]) -> float:
    """``math.fsum`` of nonnegative floats; a sum beyond float range is ``inf``
    (``fsum`` raises on such an intermediate overflow)."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _float_pnorm(pairs: Iterable[tuple], pf: float) -> float:
    """``(sum |c * w|^p)^(1/p)`` in floats over ``(coefficient, float weight)``
    pairs; a coefficient, term or sum beyond float range makes it ``inf``."""
    powers = []
    for c, w in pairs:
        x = abs(_safe_float(c)) * w
        try:
            powers.append(x ** pf)
        except OverflowError:
            powers.append(math.inf)
    total = _nonneg_fsum(powers)
    return math.inf if math.isinf(total) else total ** (1.0 / pf)


def norm(f: TruncatedSeries, beta: WeightSequence, p) -> float:
    """The weighted p-norm ``(sum |c_n|^p w(n)^p)^(1/p)`` as a float.

    Exact coefficients are converted to float before the root is taken; one
    beyond float range makes the norm ``inf``.
    """
    pf = float(p)
    if not math.isfinite(pf) or pf < 1:
        raise ValidationError(f"norm exponent must satisfy 1 <= p < inf, got {p!r}")
    return _float_pnorm(
        ((c, beta.as_float(n)) for n, c in enumerate(f.coeffs) if c != 0), pf)


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """Exact ``values`` as integer numerators over the LCM of their denominators."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _exact(num: int, den: int):
    """``num / den``: an int when ``den`` is 1 or ``num`` is 0, else a Fraction."""
    return num if den == 1 or not num else Fraction(num, den)


def _int_convolve(a: Sequence[int], b: Sequence[int], degree_bound: int) -> list[int]:
    """Plain convolution of integer lists, ``degree_bound + 1`` entries long.

    The exact products run on this: their operands are scaled to integer
    numerators over one common denominator (``_scaled``), so a term costs one
    integer multiply-add, and each output entry is reduced to a ``Fraction``
    once, at the end (Knuth, TAOCP vol. 2, 4.5.1, on delaying gcd reductions).
    """
    size = max(degree_bound + 1, 0)
    out = [0] * size
    if len(a) < len(b):
        a, b = b, a
    for j, y in enumerate(b[:size]):
        if y:
            seg = a[:size - j]
            end = j + len(seg)
            out[j:end] = [o + x * y for o, x in zip(out[j:end], seg)]
    return out


def _float_convolve(a: Sequence[float], b: Sequence[float], degree_bound: int
                    ) -> list[float]:
    """Plain convolution of float lists, truncated at ``degree_bound``: each
    output entry adds its nonzero terms in order of the index into ``a``."""
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


def _float_power_step(power: Sequence[float], alphas: Sequence[float],
                      degree_bound: int) -> list[float]:
    """The next float power of a symbol, ``power * alphas`` truncated at
    ``degree_bound``; a power that leaves float range is rejected, as a series
    with such a coefficient is."""
    out = _float_convolve(power, alphas, degree_bound)
    if not all(map(math.isfinite, out)):
        raise ValidationError(_NOT_FINITE)
    return out


def _power_rows(phi: "PolynomialSymbol", degree_bound: int, max_power: int
                ) -> list[tuple[tuple, int]]:
    """Coefficients of ``phi**L`` up to ``degree_bound`` for ``L = 0..max_power``,
    as ``(numerators, denominator)`` per row.

    Float rows are running float products over 1.  Exact row ``L`` is
    ``(D*phi)**L`` in integers over ``D**L``, ``D`` the LCM of the
    denominators of ``phi``, left unreduced.
    """
    if phi.mode == FLOAT:
        row = [1.0] + [0.0] * degree_bound
        rows = [(tuple(row), 1)]
        for _ in range(max_power):
            row = _float_power_step(row, phi.alphas, degree_bound)
            rows.append((tuple(row), 1))
        return rows
    base, lcm = _scaled(phi.alphas)
    nums, den = [1] + [0] * degree_bound, 1
    rows = [(tuple(nums), den)]
    for _ in range(max_power):
        nums = _int_convolve(nums, base, degree_bound)
        den *= lcm
        rows.append((tuple(nums), den))
    return rows


def cauchy_product(f: TruncatedSeries, g: TruncatedSeries, degree_bound: int
                   ) -> TruncatedSeries:
    """Plain convolution of two series, truncated at ``degree_bound``."""
    if _require_same_mode(f, g) == FLOAT:
        return TruncatedSeries(tuple(_float_convolve(f.coeffs, g.coeffs, degree_bound)))
    fn, fd = _scaled(f.coeffs[:degree_bound + 1])
    gn, gd = _scaled(g.coeffs[:degree_bound + 1])
    den = fd * gd
    return TruncatedSeries(tuple(_exact(x, den) for x in _int_convolve(fn, gn, degree_bound)))


def diamond_product(f: TruncatedSeries, g: TruncatedSeries, delta: DeltaSequence,
                    degree_bound: int) -> TruncatedSeries:
    """Weighted convolution: term (k, n-k) is scaled by d(n)/(d(k) d(n-k)).

    With all-ones convolution weights this is the plain Cauchy product.  The
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
    mode = _require_same_mode(f, g)
    fc, gc = f.coeffs, g.coeffs
    if mode == FLOAT:
        out = []
        for n in range(degree_bound + 1):
            lo, hi = max(0, n - len(gc) + 1), min(n, len(fc) - 1)
            terms = []
            for k in range(lo, hi + 1):
                a, b = fc[k], gc[n - k]
                if a and b:
                    terms.append(_safe_float(delta.kernel(n, k)) * a * b)
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
    d = {n: delta.value(n) for n in range(size) if live >> n & 1}
    # Only operand degrees that reach an output degree <= degree_bound.
    fs = [k for k in fs if k + gs[0] < size] if gs else []
    gs = [j for j in gs if j + fs[0] < size] if fs else []
    for i in fs + gs:
        if i not in d:
            d[i] = delta.value(i)
    if not all(isinstance(v, Rational) for v in d.values()):
        return diamond_product(f.to_float(), g.to_float(), delta, degree_bound)
    a, b = [0] * size, [0] * size
    for k in fs:
        a[k] = Fraction(fc[k]) / d[k]
    for j in gs:
        b[j] = Fraction(gc[j]) / d[j]
    an, ad = _scaled(a)
    bn, bd = _scaled(b)
    den = ad * bd
    return TruncatedSeries(tuple(
        _exact(d[n].numerator * c, d[n].denominator * den) if c else 0
        for n, c in enumerate(_int_convolve(an, bn, degree_bound))))


def compose(f: TruncatedSeries, phi: PolynomialSymbol, degree_bound: int
            ) -> TruncatedSeries:
    """Substitute the polynomial ``phi`` into ``f``, truncating the result.

    Linear in ``f``.  The result is float whenever either operand is float;
    floats accumulate running powers of ``phi`` (a power beyond float range
    is rejected, even at a zero coefficient of ``f``), while exact operands
    are evaluated by Horner's rule in integers scaled by the denominators of
    ``f`` and ``phi``.
    """
    min_deg = phi.min_degree()
    if min_deg is None:
        top = 0
    elif min_deg == 0:
        top = len(f.coeffs) - 1
    else:
        top = min(len(f.coeffs) - 1, degree_bound // min_deg)
    if f.mode == FLOAT or phi.mode == FLOAT:
        base, fc = tuple(float(a) for a in phi.alphas), f.as_floats()
        acc = [0.0] * (degree_bound + 1)
        acc[0] = fc[0]
        power = (1.0,)
        for exp in range(1, top + 1):
            power = _float_power_step(power, base, min(len(power) - 1 + phi.degree,
                                                        degree_bound))
            c = fc[exp]
            if not c:
                continue
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
        acc = _int_convolve(acc, pn, degree_bound)
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
