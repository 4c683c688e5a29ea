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
from typing import Iterable, Optional, Union

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
                raise ValidationError("coefficients must be finite")
            has_float = True
    if has_float:
        return tuple(float(c) for c in out), FLOAT
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
    def zero(cls, degree_bound: int = 0) -> "TruncatedSeries":
        return cls((0,) * (degree_bound + 1))

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
            raise ValidationError("pad cannot shrink a series; use truncate")
        zero = 0.0 if self.mode == FLOAT else 0
        return TruncatedSeries(self.coeffs + (zero,) * (degree_bound - self.degree_bound))

    def truncate(self, degree_bound: int) -> "TruncatedSeries":
        if degree_bound < 0:
            raise ValidationError("degree_bound must be nonnegative")
        if degree_bound >= self.degree_bound:
            return self.pad(degree_bound)
        return TruncatedSeries(self.coeffs[: degree_bound + 1])

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

    @classmethod
    def identity(cls) -> "PolynomialSymbol":
        return cls.monomial(1)

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

    def as_series(self, degree_bound: Optional[int] = None) -> TruncatedSeries:
        return TruncatedSeries.from_coeffs(self.alphas, degree_bound)


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
    total = math.fsum(powers)
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


def cauchy_product(f: TruncatedSeries, g: TruncatedSeries, degree_bound: int
                   ) -> TruncatedSeries:
    """Plain convolution of two series, truncated at ``degree_bound``."""
    mode = _require_same_mode(f, g)
    zero = 0.0 if mode == FLOAT else 0
    fc, gc = f.coeffs, g.coeffs
    out = []
    for n in range(degree_bound + 1):
        lo, hi = max(0, n - len(gc) + 1), min(n, len(fc) - 1)
        acc = zero
        for k in range(lo, hi + 1):
            a, b = fc[k], gc[n - k]
            if a and b:
                acc += a * b
        out.append(acc)
    return TruncatedSeries(tuple(out))


def diamond_product(f: TruncatedSeries, g: TruncatedSeries, delta: DeltaSequence,
                    degree_bound: int) -> TruncatedSeries:
    """Weighted convolution: term (k, n-k) is scaled by d(n)/(d(k) d(n-k)).

    With all-ones convolution weights this is the plain Cauchy product.  The
    operation is commutative, associative, and bilinear, with the constant
    series one as its unity; in exact mode those identities hold exactly.
    """
    mode = _require_same_mode(f, g)
    fc, gc = f.coeffs, g.coeffs
    out = []
    if mode == EXACT:
        for n in range(degree_bound + 1):
            lo, hi = max(0, n - len(gc) + 1), min(n, len(fc) - 1)
            acc = 0
            for k in range(lo, hi + 1):
                a, b = fc[k], gc[n - k]
                if a and b:
                    acc += delta.kernel(n, k) * a * b
            out.append(acc)
    else:
        for n in range(degree_bound + 1):
            lo, hi = max(0, n - len(gc) + 1), min(n, len(fc) - 1)
            terms = []
            for k in range(lo, hi + 1):
                a, b = fc[k], gc[n - k]
                if a and b:
                    terms.append(delta.kernel_float(n, k) * a * b)
            out.append(math.fsum(terms) if terms else 0.0)
    return TruncatedSeries(tuple(out))


def compose(f: TruncatedSeries, phi: PolynomialSymbol, degree_bound: int
            ) -> TruncatedSeries:
    """Substitute the polynomial ``phi`` into ``f``, truncating the result.

    Computed by accumulating running powers of ``phi``; linear in ``f``.  The
    result is float whenever either operand is float.
    """
    float_mode = f.mode == FLOAT or phi.mode == FLOAT
    zero = 0.0 if float_mode else 0
    base = phi.as_series()
    power = TruncatedSeries.unity(0)
    if float_mode:
        base, power = base.to_float(), power.to_float()
    fc = f.as_floats() if float_mode else f.coeffs
    acc = [zero] * (degree_bound + 1)
    acc[0] = fc[0]
    min_deg = phi.min_degree()
    for exp in range(1, len(fc)):
        if min_deg is None or min_deg * exp > degree_bound:
            break
        power = cauchy_product(power, base, min(power.degree_bound + phi.degree, degree_bound))
        c = fc[exp]
        if not c:
            continue
        for n, x in enumerate(power.coeffs):
            if x:
                acc[n] += c * x
    return TruncatedSeries(tuple(acc))


def diamond_substitute(u: TruncatedSeries, f: TruncatedSeries, phi: PolynomialSymbol,
                       delta: DeltaSequence, degree_bound: int) -> TruncatedSeries:
    """Apply the substitution-then-multiply operator: ``u ⟡ (f o phi)``.

    Equals the matrix route: building the substitution matrix and applying it
    to ``f`` gives the same truncated coefficients.
    """
    composed = compose(f, phi, degree_bound)
    return diamond_product(u, composed, delta, degree_bound)
