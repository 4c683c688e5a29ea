"""Exact coefficients of polynomial powers and index-set helpers.

``power_coefficient`` expands ``phi(z)**L`` by enumerating exponent vectors,
which keeps it independent of the convolution machinery in ``series`` and
usable as a cross-check.  ``PowerTable`` caches whole rows of those
coefficients for the bound computations that scan many ``(n, L)`` pairs and
for the matrix builder, which reads its columns from the rows.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .series import _NOT_FINITE, FLOAT, PolynomialSymbol, _exact, _power_rows, _stored_degree
from .weights import ValidationError

__all__ = [
    "PowerTable",
    "power_coefficient",
    "stride_offsets",
    "weighted_compositions",
]


def _check_index(value: int, what: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {value}")
    return value


def weighted_compositions(total_weight: int, num_parts: int,
                          degrees: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield exponent vectors ``l`` over ``degrees`` with the given totals.

    Each yielded tuple ``l`` is aligned with ``degrees`` and satisfies
    ``sum(l) == num_parts`` and ``sum(d * l_d) == total_weight``.  Degrees
    must be strictly increasing and nonnegative.
    """
    _check_index(total_weight, "total_weight")
    _check_index(num_parts, "num_parts")
    degs = tuple(degrees)
    for d in degs:
        _check_index(d, "degree")
    if any(a >= b for a, b in zip(degs, degs[1:])):
        raise ValidationError("degrees must be strictly increasing")
    yield from _compositions(total_weight, num_parts, degs, ())


def _compositions(n: int, parts: int, degs: tuple[int, ...],
                  suffix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Recurse from the highest degree down, prepending so the output tuple
    stays aligned with ``degs``."""
    if not degs:
        if n == 0 and parts == 0:
            yield suffix
        return
    d, rest = degs[-1], degs[:-1]
    if not rest:
        if d * parts == n:
            yield (parts,) + suffix
        return
    lo_rest, hi_rest = rest[0], rest[-1]
    top = parts if d == 0 else min(parts, n // d)
    for l in range(top, -1, -1):
        rem_n, rem_parts = n - d * l, parts - l
        if not (lo_rest * rem_parts <= rem_n <= hi_rest * rem_parts):
            continue
        yield from _compositions(rem_n, rem_parts, rest, (l,) + suffix)


def _multinomial(num_parts: int, vec: Sequence[int]) -> int:
    out, rem = 1, num_parts
    for l in vec:
        out *= math.comb(rem, l)
        rem -= l
    return out


def power_coefficient(phi: PolynomialSymbol, n: int, num_parts: int):
    """Coefficient of ``z**n`` in ``phi(z)**num_parts``, by enumeration.

    Exact when the polynomial is exact.  Sums, over exponent vectors from
    :func:`weighted_compositions` on the support of ``phi``, the multinomial
    count times the product of the supported coefficients.  A float term or
    sum beyond float range is rejected, as a float ``PowerTable`` row is.
    """
    _check_index(n, "n")
    _check_index(num_parts, "num_parts")
    support = tuple(i for i, a in enumerate(phi.alphas) if a != 0)
    if not support:
        return (1 if n == 0 and num_parts == 0 else 0)
    acc = []
    try:
        for vec in _compositions(n, num_parts, support, ()):
            term = _multinomial(num_parts, vec)
            for d, l in zip(support, vec):
                if l:
                    term *= phi.alphas[d] ** l
            acc.append(term)
        total = math.fsum(acc) if phi.mode == "float" else sum(acc)
    except (OverflowError, ValueError):  # ValueError: fsum of an inf and a -inf term
        total = math.inf
    if phi.mode == "float" and not math.isfinite(total):
        raise ValidationError(_NOT_FINITE)
    return total


class PowerTable:
    """Rows of coefficients of ``phi**L`` for ``L = 0..max_power``.

    Row ``L`` holds the truncated coefficient vector of ``phi**L``; entry
    ``theta(n, L)`` is the ``z**n`` coefficient.  ``method`` names the route,
    which follows from ``phi``:

    - ``"direct"`` for a unit monomial ``z**m``: entries come from arithmetic
      on the degree, no storage.
    - ``"powers"`` otherwise: iterated truncated convolution, one row from
      the last; exact rows are kept as integer numerators over a power of the
      common denominator of ``phi`` and reduced only when read.  The bound
      scans read the numerators and the denominator unreduced, through
      :meth:`column_scaled` and :meth:`row_nonzeros_scaled`.  Rows are stored up to
      :func:`_stored_degree`; every entry beyond it is zero.
    """

    def __init__(self, phi: PolynomialSymbol, degree_bound: int, max_power: int):
        if not isinstance(phi, PolynomialSymbol):
            raise ValidationError("phi must be a PolynomialSymbol")
        self.phi = phi
        self.degree_bound = _check_index(degree_bound, "degree_bound")
        self.max_power = _check_index(max_power, "max_power")
        self._mono = phi.monomial_degree()
        self._one = 1.0 if phi.mode == FLOAT else 1  # theta of a unit monomial, in phi's mode
        self.method = "powers" if self._mono is None else "direct"
        self._rows: Optional[list[tuple[tuple, int]]] = None
        if self._mono is None:
            self._rows = _power_rows(phi, _stored_degree(phi, self.degree_bound, self.max_power),
                                     self.max_power)

    def _check_bounds(self, n: int, L: int) -> None:
        if (type(n) is int and type(L) is int  # the common case, without the messages
                and 0 <= n <= self.degree_bound and 0 <= L <= self.max_power):
            return
        _check_index(n, "n")
        _check_index(L, "L")
        if n > self.degree_bound:
            raise ValidationError(f"n={n} exceeds table degree bound {self.degree_bound}")
        if L > self.max_power:
            raise ValidationError(f"L={L} exceeds table max power {self.max_power}")

    def column_scaled(self, n: int) -> list[tuple[int, object, int]]:
        """``(L, numerator, denominator)`` of ``theta(n, L)`` for the powers
        ``L`` in :meth:`power_range`, unreduced."""
        powers = self.power_range(n)
        if self._mono is not None:
            return [(L, 1, 1) for L in powers]
        rows = self._rows
        return [(L, rows[L][0][n], rows[L][1]) for L in powers]

    def row_nonzeros(self, L: int) -> Iterator[tuple[int, object]]:
        """The nonzero ``(degree, coefficient)`` pairs of ``phi**L``."""
        pairs, den = self.row_nonzeros_scaled(L)
        return iter(pairs) if den == 1 else ((n, _exact(x, den)) for n, x in pairs)

    def row_nonzeros_scaled(self, L: int) -> tuple[list[tuple[int, object]], object]:
        """The nonzero ``(degree, numerator)`` pairs of ``phi**L`` and their
        common denominator, unreduced."""
        self._check_bounds(0, L)
        if self._mono is not None:
            pos = self._mono * L
            return ([(pos, self._one)] if pos <= self.degree_bound else []), 1
        nums, den = self._rows[L]
        return [(n, value) for n, value in enumerate(nums) if value != 0], den

    def power_range(self, n: int) -> range:
        """Powers ``L`` whose ``theta(n, L)`` can be nonzero, as a range."""
        self._check_bounds(n, 0)
        if self._mono is not None:
            m = self._mono
            if m == 0:
                return range(0, self.max_power + 1) if n == 0 else range(0)
            L, rem = divmod(n, m)
            if rem or L > self.max_power:
                return range(0)
            return range(L, L + 1)
        low = self.phi.min_degree()
        if low is None:
            return range(0, 1) if n == 0 else range(0)
        deg = self.phi.degree
        lo = 0 if deg == 0 else -(-n // deg)
        hi = self.max_power if low == 0 else min(self.max_power, n // low)
        if deg == 0 and n > 0:
            return range(0)
        return range(lo, hi + 1)  # empty when lo > hi


def stride_offsets(n: int, stride: int) -> range:
    """Indices ``k in [0, n]`` with ``n - k`` divisible by ``stride``."""
    _check_index(n, "n")
    _check_index(stride, "stride", minimum=1)
    return range(n % stride, n + 1, stride)
