"""Weight sequences and space parameters for weighted power-series norms.

A sequence space is described by a norm weight ``w(n)`` (one positive number
per coefficient index), a convolution weight ``d(n)`` with ``d(0) = 1`` that
shapes the diamond product, and an exponent ``p >= 1``.  Both weight kinds are
lazy maps from indices to positive scalars; preset families cover the common
choices and explicit value lists cover ad-hoc finite experiments.

The request the bound evaluators take (``CriterionRequest``), the certificate
they return (``BoundCertificate``) and the size guard (``_guard``) live here
too, so that ``criteria`` needs no ``operators`` and a launch imports neither
before its command reaches them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Callable, Optional, Sequence, Union

__all__ = [
    "BETA_PRESETS",
    "DELTA_PRESETS",
    "BoundCertificate",
    "CriterionRequest",
    "DeltaSequence",
    "ResourceLimitError",
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

DENSE_ENTRY_LIMIT = 10_000_000

CERTIFICATE_KINDS = ("lower", "upper", "exact")


class ValidationError(ValueError):
    """A weight, exponent, or truncation parameter violates its constraints."""


class ResourceLimitError(RuntimeError):
    """A requested build exceeds the configured size guard."""


def _guard(estimate: int, label: str) -> None:
    if estimate > DENSE_ENTRY_LIMIT:
        raise ResourceLimitError(
            f"{label} needs ~{estimate} entries; the guard allows {DENSE_ENTRY_LIMIT}"
        )


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
    if isinstance(value, (int, Fraction)):
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
        if type(n) is not int or not 0 <= n <= _VALUE_CACHE_LIMIT:
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValidationError(
                    f"{self._what} index must be a nonnegative integer, got {n!r}")
            if n > _VALUE_CACHE_LIMIT:
                return _check_positive(self._fn(n), n, self._what)
        hit = self._cache.get(n)
        if hit is None:
            hit = self._cache[n] = _check_positive(self._fn(n), n, self._what)
        return hit

    def as_float(self, n: int) -> float:
        """Float view of value(n); huge exact values overflow to inf."""
        v = self.value(n)
        return v if type(v) is float else _safe_float(v)

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
        if type(num) is int and type(den) is int:
            out: Scalar = num // den if num % den == 0 else Fraction(num, den)
        elif isinstance(num, Rational) and isinstance(den, Rational):
            out = Fraction(num) / Fraction(den)
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


def _running_factorial() -> Callable[[int], int]:
    """``n!`` as a running product from the largest index computed so far
    (below it, ``math.factorial``).  The state is one ``(k, k!)`` tuple,
    rebound in one step, so concurrent readers see a consistent pair."""
    state = (0, 1)

    def factorial(n: int) -> int:
        nonlocal state
        k, value = state
        if n < k:
            return math.factorial(n)
        value *= math.perm(n, n - k)
        state = (n, value)
        return value

    return factorial


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
            return DeltaSequence(_running_factorial(), label="factorial")
        if name == "inverse-factorial":
            factorial = _running_factorial()
            return DeltaSequence(lambda n: Fraction(1, factorial(n)),
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
    if isinstance(p, float) and math.isinf(p):
        return 1.0
    if not p >= 1:  # a nan float too
        raise ValidationError(f"exponent must satisfy p >= 1, got {p!r}")
    if p == 1:
        return math.inf
    if isinstance(p, float):
        return p / (p - 1.0)
    q = Fraction(p) / (Fraction(p) - 1)
    return int(q) if q.denominator == 1 else q


class _Frozen:
    """Base of the frozen value classes: ``__init__`` sets the fields named
    in ``_fields`` once, through ``_set``; equality, hash and repr go over
    them, and no attribute can be assigned or deleted after.  Plain classes
    keep the standard library's class generators, and the ``inspect`` import
    they pull in, off every launch."""

    _fields: tuple = ()

    def _set(self, *values) -> None:
        # Not self.__dict__.update: reading __dict__ gives up the interpreter's
        # fast path for attribute reads (about 3x slower on CPython 3.11).
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SpaceConfig(_Frozen):
    """The exponent p and the truncation block shared by the bound evaluators.

    ``truncation_degree`` caps the outer index of every scanned sup or sum
    and the inner sums over symbol powers, ``tail_window`` is the trailing
    stretch used for the convergence check and ``tolerance`` is the largest
    tail movement still considered settled.
    """

    _fields = ("p", "truncation_degree", "tail_window", "tolerance")

    def __init__(self, p: Union[int, float, Fraction] = 2, truncation_degree: int = 512,
                 tail_window: int = 10, tolerance: float = 1e-7):
        self._set(p, truncation_degree, tail_window, tolerance)
        conjugate_exponent(self.p)  # validates p >= 1
        if _safe_float(self.p) == math.inf:  # an exact p beyond float range too
            raise ValidationError("p = inf is not supported; norms require finite p >= 1")
        for name in ("truncation_degree", "tail_window"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValidationError(f"{name} must be a nonnegative integer, got {v!r}")
        if self.tail_window < 1:
            raise ValidationError("tail_window must be at least 1")
        if self.truncation_degree < self.tail_window:
            raise ValidationError("truncation_degree must be >= tail_window")
        v = self.tolerance
        if isinstance(v, bool) or not (isinstance(v, (int, float)) and 0 < v < math.inf):
            raise ValidationError("tolerance must be a finite positive real")

    @property
    def q(self):
        return conjugate_exponent(self.p)

    @property
    def sup_mode(self) -> bool:
        """True when p = 1, in which case inner q-sums degrade to sups."""
        return self.p == 1


class BoundCertificate(_Frozen):
    """A certified bound on an operator norm, with truncation diagnostics.

    ``value`` is the bound (may be ``inf``); ``kind`` says which side it
    certifies.  ``tail_delta`` is how much the running value moved over the
    final stretch of the scan and ``converged`` records whether that movement
    stayed within tolerance.  ``attained_at`` is the smallest index achieving
    the value, when one exists inside the scanned range.
    """

    _fields = ("value", "kind", "attained_at", "truncation_degree", "tail_delta",
               "converged", "notes")

    def __init__(self, value: float, kind: str, attained_at: Optional[int],
                 truncation_degree: int, tail_delta: float, converged: bool,
                 notes: tuple = ()):
        if kind not in CERTIFICATE_KINDS:
            raise ValidationError(f"certificate kind must be one of {CERTIFICATE_KINDS}")
        value = float(value)
        if math.isnan(value) or value < 0:
            raise ValidationError(f"certificate value must be nonnegative, got {value!r}")
        tail_delta = float(tail_delta)
        if attained_at is not None and (not isinstance(attained_at, int) or attained_at < 0):
            raise ValidationError("attained_at must be None or a nonnegative index")
        if not isinstance(truncation_degree, int) or truncation_degree < 0:
            raise ValidationError("truncation_degree must be a nonnegative integer")
        self._set(value, kind, attained_at, truncation_degree, tail_delta, bool(converged),
                  tuple(str(n) for n in notes))

    def as_report_dict(self) -> dict:
        return {
            "value": "inf" if math.isinf(self.value) else self.value,
            "kind": self.kind,
            "attained_at": self.attained_at,
            "truncation_degree": self.truncation_degree,
            "tail_delta": "inf" if math.isinf(self.tail_delta) else self.tail_delta,
            "converged": self.converged,
            "notes": list(self.notes),
        }


class CriterionRequest(_Frozen):
    """Input bundle for the bound evaluators: the weights, the space (p and
    the truncation block) and the operator.

    The operator is the pair of the multiplier ``u`` and the symbol ``phi``;
    an evaluator that needs either as a unit monomial ``z**m`` reads ``m``
    from it.  The parsed ``cli.Config`` is itself a request.
    """

    _fields = ("beta", "delta", "space", "u", "phi")

    def __init__(self, beta: WeightSequence, delta: DeltaSequence, space: SpaceConfig,
                 u: Optional[TruncatedSeries] = None, phi: Optional[PolynomialSymbol] = None):
        self._set(beta, delta, space, u, phi)
