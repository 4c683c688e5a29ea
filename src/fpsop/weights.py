"""Weight sequences and space parameters for weighted power-series norms.

A sequence space is described by a norm weight ``w(n)`` (one positive number
per coefficient index), a convolution weight ``d(n)`` with ``d(0) = 1`` that
shapes the diamond product, and an exponent ``p >= 1``.  Both weight kinds are
lazy maps from indices to positive scalars; preset families cover the common
choices and explicit value lists cover ad-hoc finite experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence, Union

__all__ = [
    "BETA_PRESETS",
    "DELTA_PRESETS",
    "DeltaSequence",
    "SpaceConfig",
    "ValidationError",
    "WeightSequence",
    "conjugate_exponent",
    "make_beta",
    "make_delta",
]

Scalar = Union[int, Fraction, float]

BETA_PRESETS = ("hardy", "bergman", "dirichlet")
DELTA_PRESETS = ("ones", "factorial", "inverse-factorial", "geometric")

_VALUE_CACHE_LIMIT = 4096
_KERNEL_CACHE_LIMIT = 2048


class ValidationError(ValueError):
    """A weight, exponent, or truncation parameter violates its constraints."""


def _safe_float(value) -> float:
    """``float(value)``, with an exact value beyond float range as ``inf``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _check_positive(value: Scalar, n: int, what: str) -> Scalar:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{what}({n}) is not finite")
    if value <= 0:
        raise ValidationError(f"{what}({n}) = {value!r}; weights must be positive")
    return value


def _exact_scalar(value, what: str) -> Union[int, Fraction]:
    """Convert a list entry to an exact rational (floats convert exactly)."""
    if isinstance(value, bool):
        raise ValidationError(f"{what} entries must be numbers, got bool")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"{what} entries must be finite")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad {what} entry {value!r}: {exc}") from exc
    raise ValidationError(f"{what} entries must be numbers, got {type(value).__name__}")


class _LazySequence:
    """Deterministic index-to-scalar map with a bounded memo.

    Values for indices up to ``_VALUE_CACHE_LIMIT`` are computed once and
    reused, so the evaluators' inner loops stay O(1) per index; larger
    indices are recomputed on demand.  The memo takes no lock: it is idempotent, since
    the map is a deterministic function, so concurrent readers at worst
    compute a value twice and store equal values.
    """

    def __init__(self, fn: Callable[[int], Scalar], label: str, what: str):
        self._fn = fn
        self.label = label
        self._what = what
        self._cache: dict[int, Scalar] = {}

    def value(self, n: int) -> Scalar:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValidationError(f"{self._what} index must be a nonnegative integer, got {n!r}")
        if n <= _VALUE_CACHE_LIMIT:
            hit = self._cache.get(n)
            if hit is None:
                hit = self._cache[n] = _check_positive(self._fn(n), n, self._what)
            return hit
        return _check_positive(self._fn(n), n, self._what)

    def as_float(self, n: int) -> float:
        """Float view of value(n); huge exact values overflow to inf."""
        return _safe_float(self.value(n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.label!r})"


class WeightSequence(_LazySequence):
    """Norm weights ``w(n) > 0`` defining a weighted p-norm on coefficients.

    ``warnings`` carries non-fatal diagnostics (for example ``w(0) != 1``,
    which is legal but makes the constant series have norm other than one).
    """

    def __init__(self, fn, label: str = "custom", warnings: Sequence[str] = ()):
        super().__init__(fn, label, "beta")
        self.warnings = tuple(warnings)


class DeltaSequence(_LazySequence):
    """Convolution weights ``d(n) > 0`` with ``d(0) = 1``.

    The diamond product weighs the (k, n-k) term of an ordinary convolution by
    ``d(n) / (d(k) d(n-k))``; presets are stored exactly (big integers and
    Fractions) so that kernel ratios never lose precision.
    """

    def __init__(self, fn, label: str = "custom"):
        super().__init__(fn, label, "delta")
        first = self.value(0)
        if first != 1:
            raise ValidationError(f"delta(0) must equal 1, got {first!r}")
        self._kernel_cache: dict[tuple[int, int], Scalar] = {}

    def kernel(self, n: int, k: int) -> Scalar:
        """The factor ``d(n) / (d(k) d(n-k))`` for the k-th convolution term."""
        if not 0 <= k <= n:
            raise ValidationError(f"kernel index k={k} outside 0..{n}")
        if n <= _KERNEL_CACHE_LIMIT:
            hit = self._kernel_cache.get((n, k))
            if hit is not None:
                return hit
        num = self.value(n)
        den = self.value(k) * self.value(n - k)
        if isinstance(num, Rational) and isinstance(den, Rational):
            out: Scalar = Fraction(num) / Fraction(den)
            if out.denominator == 1:
                out = int(out)
        else:
            out = num / den
        if n <= _KERNEL_CACHE_LIMIT:
            self._kernel_cache[(n, k)] = out
        return out


def _explicit_fn(values: tuple, what: str) -> Callable[[int], Scalar]:
    def fn(n: int) -> Scalar:
        if n >= len(values):
            raise ValidationError(
                f"explicit {what} list has {len(values)} entries; index {n} is out of range"
            )
        return values[n]

    return fn


def make_beta(spec) -> WeightSequence:
    """Build norm weights from a preset name, a power-law exponent, or a list.

    Presets: ``hardy`` (all ones), ``bergman`` ((n+1)**-1/2), ``dirichlet``
    ((n+1)**1/2).  A bare number ``e`` selects the power law ``(n+1)**e``.
    Explicit lists are validated for positivity and attach a warning when the
    leading weight differs from one.
    """
    if isinstance(spec, str):
        name = spec.lower()
        if name == "hardy":
            return WeightSequence(lambda n: 1, label="hardy")
        if name == "bergman":
            return WeightSequence(lambda n: (n + 1) ** -0.5, label="bergman")
        if name == "dirichlet":
            return WeightSequence(lambda n: (n + 1) ** 0.5, label="dirichlet")
        raise ValidationError(f"unknown beta preset {spec!r}; expected one of {BETA_PRESETS}")
    if isinstance(spec, (int, float, Fraction)) and not isinstance(spec, bool):
        exponent = float(spec)
        if not math.isfinite(exponent):
            raise ValidationError("power-law exponent must be finite")

        def power(n: int) -> float:
            try:
                return (n + 1) ** exponent
            except OverflowError:
                raise ValidationError(
                    f"beta({n}) = {n + 1}**{exponent:g} is beyond float range") from None

        return WeightSequence(power, label=f"power({exponent:g})")
    if isinstance(spec, (list, tuple)):
        if not spec:
            raise ValidationError("explicit beta list needs at least one entry")
        values = tuple(
            _check_positive(_exact_scalar(v, "beta"), i, "beta") for i, v in enumerate(spec)
        )
        warn = () if values[0] == 1 else ("beta(0) != 1",)
        return WeightSequence(_explicit_fn(values, "beta"), label="explicit", warnings=warn)
    raise ValidationError(f"cannot build beta weights from {type(spec).__name__}")


def make_delta(spec, ratio=None) -> DeltaSequence:
    """Build convolution weights from a preset name or an explicit list.

    Presets: ``ones`` (plain Cauchy product), ``factorial`` (n!),
    ``inverse-factorial`` (1/n!), and ``geometric`` which requires a positive
    ``ratio`` r and yields r**n.  Explicit lists must start with 1.
    """
    if isinstance(spec, str):
        name = spec.lower()
        if name == "ones":
            return DeltaSequence(lambda n: 1, label="ones")
        if name == "factorial":
            return DeltaSequence(math.factorial, label="factorial")
        if name == "inverse-factorial":
            return DeltaSequence(lambda n: Fraction(1, math.factorial(n)),
                                 label="inverse-factorial")
        if name == "geometric":
            if ratio is None:
                raise ValidationError("geometric delta needs a ratio")
            r = _exact_scalar(ratio, "delta ratio")
            if r <= 0:
                raise ValidationError(f"geometric ratio must be positive, got {ratio!r}")
            return DeltaSequence(lambda n: Fraction(r) ** n, label=f"geometric({r})")
        raise ValidationError(f"unknown delta preset {spec!r}; expected one of {DELTA_PRESETS}")
    if isinstance(spec, (list, tuple)):
        if not spec:
            raise ValidationError("explicit delta list needs at least one entry")
        values = tuple(
            _check_positive(_exact_scalar(v, "delta"), i, "delta") for i, v in enumerate(spec)
        )
        return DeltaSequence(_explicit_fn(values, "delta"), label="explicit")
    raise ValidationError(f"cannot build delta weights from {type(spec).__name__}")


def conjugate_exponent(p):
    """The exponent q with 1/p + 1/q = 1; returns inf for p = 1.

    Exact inputs give exact outputs, so applying the map twice returns the
    original rational p.
    """
    if isinstance(p, bool) or not isinstance(p, (int, float, Fraction)):
        raise ValidationError(f"exponent must be a number, got {type(p).__name__}")
    if isinstance(p, float):
        if math.isinf(p):
            return 1.0
        if not math.isfinite(p) or p < 1:
            raise ValidationError(f"exponent must satisfy p >= 1, got {p!r}")
        if p == 1:
            return math.inf
        return p / (p - 1.0)
    if p < 1:
        raise ValidationError(f"exponent must satisfy p >= 1, got {p!r}")
    if p == 1:
        return math.inf
    q = Fraction(p) / (Fraction(p) - 1)
    return int(q) if q.denominator == 1 else q


@dataclass(frozen=True)
class SpaceConfig:
    """Exponent and truncation parameters shared by the bound evaluators.

    ``truncation_degree`` caps the outer index of every scanned sup or sum,
    ``tail_window`` is the trailing stretch used for the convergence check,
    and ``tolerance`` is the largest tail movement still considered settled.
    """

    p: Union[int, float, Fraction] = 2
    truncation_degree: int = 512
    tail_window: int = 10
    tolerance: float = 1e-7

    def __post_init__(self):
        if isinstance(self.p, float) and math.isinf(self.p):
            raise ValidationError("p = inf is not supported; norms require finite p >= 1")
        conjugate_exponent(self.p)  # validates p >= 1
        if self.tail_window < 1:
            raise ValidationError("tail_window must be at least 1")
        if self.truncation_degree < self.tail_window:
            raise ValidationError("truncation_degree must be >= tail_window")
        if not (isinstance(self.tolerance, (int, float)) and 0 < self.tolerance < math.inf):
            raise ValidationError("tolerance must be a finite positive real")

    @property
    def q(self):
        return conjugate_exponent(self.p)

    @property
    def sup_mode(self) -> bool:
        """True when p = 1, in which case inner q-sums degrade to sups."""
        return self.p == 1
