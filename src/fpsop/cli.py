"""Batch command-line front end: JSON config in, JSON report out.

One command per invocation.  Reports are deterministic for a fixed config
and seed: timing is only included when explicitly requested, and infinite
values serialize as the string ``"inf"`` to stay inside plain JSON.

Exit codes: 0 success (a divergent certificate is a finding, not an error),
1 internal failure or violated algebra law, 2 configuration or usage error,
3 resource guard tripped.

A launch imports only what its command runs: ``norm``, ``product`` and
``compose`` need ``series`` and ``weights`` alone, ``theta`` adds
``combinatorics``, ``bound`` and ``check-algebra`` add ``criteria``, and only
``estimate`` imports ``operators``.  Without cached bytecode every module
imported is compiled first, about half the time of a short launch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .series import PolynomialSymbol, TruncatedSeries, compose, diamond_product, norm
from .weights import (
    BoundCertificate,
    CriterionRequest,
    DeltaSequence,
    ResourceLimitError,
    SpaceConfig,
    ValidationError,
    WeightSequence,
    _safe_float,
    conjugate_exponent,
    make_beta,
    make_delta,
)

__all__ = ["COMMANDS", "Config", "ConfigError", "main", "parse_config", "run"]

COMMANDS = ("norm", "product", "compose", "theta", "bound", "estimate", "check-algebra")

CRITERION_CODES = ("thm21", "thm22", "thm23", "cor24", "thm25", "cor26")

_LAW_SAMPLES = 25
_LAW_DEGREE = 12


class ConfigError(ValueError):
    """The configuration document is malformed or inconsistent."""


def _parse_text(text: str, what: str):
    """``(echo, Fraction)`` of an exact-scalar string.

    A canonical ``a/b`` (an optional ``-``, then ASCII digits with no leading
    zero on either side) is read with one ``int()`` per part and one gcd, and
    is its own echo when the gcd leaves ``b`` as it is and ``b != 1``: the
    text is then ``str(Fraction)``.  ``isascii`` is O(1), so with the end
    characters of each part checked and no ``_``, ``int()`` accepts only
    digits.  Any other text goes through ``Fraction(text)``.  An echo with
    more digits than the interpreter writes an integer with is rejected, as a
    literal that long is.
    """
    if text.isascii() and "_" not in text:
        num, _, den = text.partition("/")
        lead = num[1:2] if num[:1] == "-" else num[:1]
        if ("1" <= lead <= "9" and "1" <= den[:1] <= "9"
                and "0" <= num[-1:] <= "9" and "0" <= den[-1:] <= "9"):
            try:
                d = int(den)
                value = Fraction(int(num), d)
            except ValueError:
                pass  # an inner sign, blank or "/", or a part past the digit limit
            else:
                if value.denominator == d != 1:
                    return text, value
                return _render_scalar(value), value
    try:
        value = Fraction(text)
        echo = _render_scalar(value)  # str() of a fraction past the digit limit raises
        limit = _digit_limit()
        if isinstance(echo, int) and limit and echo.bit_length() > 3 * limit:
            str(echo)  # and so does a whole number's, which a report writes
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {what} entry {text!r}: {exc}") from exc
    return echo, value


def _digit_limit() -> int:
    """The most digits the interpreter converts an integer to or from text
    with, 0 where it has no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _render_scalar(value):
    if isinstance(value, bool):
        raise ConfigError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, float):
        return "inf" if math.isinf(value) else value
    raise ConfigError(f"cannot render {type(value).__name__}")


def _parse_echo(value, what: str):
    """``(echo, scalar)`` of one config scalar: its rendered echo and its
    parsed value."""
    if isinstance(value, str):
        return _parse_text(value, what)
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got a boolean")
    if isinstance(value, (int, float)):
        return _render_scalar(value), value
    raise ConfigError(f"{what} must be a number or 'num/den' string, got {type(value).__name__}")


def _parse_once(value, what: str):
    """``(echo, scalar)`` of one finite weight scalar, parsed once: its
    rendered echo and the value the weights are built from, a whole Fraction
    as an int, as parsing the echo again would give."""
    echo, scalar = _parse_echo(value, what)
    if isinstance(scalar, float) and not math.isfinite(scalar):
        raise ConfigError(f"{what} entries must be finite, got {value!r}")
    return echo, (scalar if isinstance(echo, str) else echo)


def _normalize_weight_spec(spec, what: str) -> tuple[dict, Callable]:
    """``(echo, build)``: the normalized weight spec and a thunk that builds
    the weights from the scalars parsed for the echo."""
    make = make_delta if what == "delta" else make_beta
    if spec is None:
        spec = "ones" if what == "delta" else "hardy"
    if isinstance(spec, str):
        return {"preset": spec}, partial(make, spec)
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} spec must be an object, got {type(spec).__name__}")
    keys = set(spec)
    if "preset" in keys:
        allowed = {"preset", "ratio"} if what == "delta" else {"preset"}
        if not keys <= allowed:
            raise ConfigError(f"unexpected keys in {what} spec: {sorted(keys - allowed)}")
        out = {"preset": spec["preset"]}
        if "ratio" not in spec:
            return out, partial(make, spec["preset"])
        out["ratio"], ratio = _parse_once(spec["ratio"], f"{what} ratio")
        return out, partial(make, spec["preset"], ratio=ratio)
    if "values" in keys:
        if keys != {"values"}:
            raise ConfigError(f"unexpected keys in {what} spec: {sorted(keys - {'values'})}")
        pairs = [_parse_once(v, what) for v in spec["values"]]
        return {"values": [echo for echo, _ in pairs]}, partial(make, [v for _, v in pairs])
    if "power" in keys and what == "beta":
        if keys != {"power"}:
            raise ConfigError(f"unexpected keys in beta spec: {sorted(keys - {'power'})}")
        echo, power = _parse_once(spec["power"], "beta power")
        return {"power": echo}, partial(make_beta, power)
    raise ConfigError(f"{what} spec needs 'preset', 'values'"
                      + (" or 'power'" if what == "beta" else ""))


def _normalize_series_spec(spec, what: str) -> Optional[dict]:
    if spec is None:
        return None
    if isinstance(spec, dict):
        keys = set(spec)
        if keys == {"monomial"}:
            m = spec["monomial"]
            if isinstance(m, bool) or not isinstance(m, int) or m < 0:
                raise ConfigError(f"{what} monomial degree must be a nonnegative integer")
            return {"monomial": m}
        if keys == {"coeffs"}:
            coeffs = spec["coeffs"]
            if not isinstance(coeffs, list) or not coeffs:
                raise ConfigError(f"{what} coeffs must be a nonempty list")
            return {"coeffs": [_parse_echo(v, what)[0] for v in coeffs]}
        raise ConfigError(f"{what} spec needs exactly 'monomial' or 'coeffs', got {sorted(keys)}")
    raise ConfigError(f"{what} spec must be an object, got {type(spec).__name__}")


def _build_series(norm_spec: Optional[dict], cls=TruncatedSeries, what: str = "series"):
    """The ``cls`` (a series or a symbol) of a normalized spec, None when absent."""
    if norm_spec is None:
        return None
    if "monomial" in norm_spec:
        return cls.monomial(norm_spec["monomial"])
    return cls.from_coeffs(_parse_echo(v, f"{what} coefficient")[1] for v in norm_spec["coeffs"])


_TOP_KEYS = {
    "p", "beta", "delta", "u", "phi", "f", "g", "stride", "shift",
    "theorem", "truncation", "seed", "n", "power",
}

_TRUNC_KEYS = {"degree", "tail_window", "tolerance"}


def _check_int(value, what: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _check_positive(value, what: str) -> float:
    """``value`` as a float, when it is a finite positive JSON number."""
    out = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out = _safe_float(value)  # an int beyond float range is inf
    if not 0 < out < math.inf:
        raise ConfigError(f"{what} must be a finite positive number, got {value!r}")
    return out


class Config(CriterionRequest):
    """A validated configuration: the criterion request the evaluators take,
    plus ``normalized``, the canonical JSON-ready echo.

    Two configs are equal exactly when their normalized documents are equal,
    so a serialize/parse round trip is the identity.  Every value is held
    once: ``u`` and ``phi`` are None when absent, and ``z**m`` for a
    ``shift`` or ``stride`` of ``m``; p and the truncation block are
    ``space``, and the seed is read from ``normalized``.
    """

    _fields = ("normalized", "beta", "delta", "u", "phi", "space")
    __hash__ = None

    def __init__(self, normalized: dict, beta: WeightSequence, delta: DeltaSequence,
                 u: Optional[TruncatedSeries], phi: Optional[PolynomialSymbol],
                 space: SpaceConfig):
        self._set(normalized, beta, delta, u, phi, space)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.normalized == other.normalized

    def serialize(self) -> str:
        return json.dumps(self.normalized, indent=2, sort_keys=True) + "\n"


def parse_config(source) -> Config:
    """Parse and validate a configuration from a file path or JSON text."""
    text = str(source)
    if not text.lstrip().startswith("{"):
        if not os.path.isfile(text):
            raise ConfigError(f"config file not found: {text}")
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ConfigError(f"config has an integer literal with more than {_digit_limit()}"
                          f" digits, the most the interpreter reads: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    p_echo, p = _parse_echo(raw.get("p", 2), "p")
    conjugate_exponent(p)

    trunc = raw.get("truncation", {})
    if not isinstance(trunc, dict):
        raise ConfigError("truncation must be an object")
    bad = set(trunc) - _TRUNC_KEYS
    if bad:
        raise ConfigError(f"unknown truncation keys: {sorted(bad)}")
    degree = _check_int(trunc.get("degree", 512), "truncation.degree")
    tail_window = _check_int(trunc.get("tail_window", 10), "truncation.tail_window", 1)
    tolerance = _check_positive(trunc.get("tolerance", 1e-7), "truncation.tolerance")

    theorem = raw.get("theorem")
    if theorem is not None and theorem not in CRITERION_CODES:
        raise ConfigError(f"unknown theorem code {theorem!r}; expected one of {CRITERION_CODES}")

    beta_spec, build_beta = _normalize_weight_spec(raw.get("beta"), "beta")
    delta_spec, build_delta = _normalize_weight_spec(raw.get("delta"), "delta")
    normalized = {
        "p": p_echo,
        "beta": beta_spec,
        "delta": delta_spec,
        "u": _normalize_series_spec(raw.get("u"), "u"),
        "phi": _normalize_series_spec(raw.get("phi"), "phi"),
        "f": _normalize_series_spec(raw.get("f"), "f"),
        "g": _normalize_series_spec(raw.get("g"), "g"),
        "stride": None if raw.get("stride") is None else _check_int(raw["stride"], "stride"),
        "shift": None if raw.get("shift") is None else _check_int(raw["shift"], "shift"),
        "theorem": theorem,
        "n": None if raw.get("n") is None else _check_int(raw["n"], "n"),
        "power": None if raw.get("power") is None else _check_int(raw["power"], "power"),
        "truncation": {
            "degree": degree,
            "tail_window": tail_window,
            "tolerance": tolerance,
        },
        "seed": _check_int(raw.get("seed", 0), "seed"),
    }

    try:
        beta, delta = build_beta(), build_delta()
        operator = {"u": _build_series(normalized["u"]),
                    "phi": _build_series(normalized["phi"], PolynomialSymbol, "symbol")}
        space = SpaceConfig(p, degree, tail_window, tolerance)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    # "stride": m and "shift": m are shorthand for phi = z**m and u = z**m.
    for key, name, cls in (("stride", "phi", PolynomialSymbol), ("shift", "u", TruncatedSeries)):
        m, given = normalized[key], operator[name]
        if m is not None and given is None:
            operator[name] = cls.monomial(m)
        elif m is not None and given.monomial_degree() != m:
            raise ConfigError(f"{key}={m} conflicts with {name}, which is not z**{m}")
    return Config(normalized, beta, delta, operator["u"], operator["phi"], space)


def _series_or_fail(config: Config, key: str) -> TruncatedSeries:
    spec = config.normalized.get(key)
    if spec is None:
        raise ConfigError(f"command needs the series {key!r} in the config")
    return _build_series(spec)


def _cert_entries(pairs) -> list[dict]:
    return [{"name": name, **cert.as_report_dict()} for name, cert in pairs]


def _coeff_list(series: TruncatedSeries) -> list:
    return [_render_scalar(c) for c in series.coeffs]


# Criterion code -> (its evaluator in ``criteria``, the names of its certificates).
_CRITERIA = {
    "thm21": ("composition_norm_monomial", ("composition-norm-exact",)),
    "thm22": ("composition_bounds_polynomial",
              ("composition-power-sum-upper", "composition-monomial-lower")),
    "thm23": ("substitution_bounds_monomial_symbol",
              ("substitution-stride-upper", "substitution-column-lower")),
    "cor24": ("multiplier_algebra_bound", ("multiplier-algebra-upper",)),
    "thm25": ("substitution_bounds_monomial_multiplier",
              ("substitution-shift-upper", "substitution-shift-lower")),
    "cor26": ("substitution_bounds_monomial_pair",
              ("progression-ratio-upper", "progression-ratio-lower")),
}


def __getattr__(name: str):
    """Bind ``_CRITERION_EVALUATORS`` (code -> evaluator), ``build_matrix``
    and ``column_lower_bound`` on first access, importing ``criteria`` or
    ``operators`` only then.  The commands read them through ``_cli``, this
    module, so that a replacement set on it (the benchmark's tracer sets
    one) is the one called."""
    if name == "_CRITERION_EVALUATORS":
        from . import criteria
        value = {code: getattr(criteria, fn) for code, (fn, _) in _CRITERIA.items()}
    elif name == "build_matrix":
        from .operators import build_matrix as value
    elif name == "column_lower_bound":
        from .criteria import column_lower_bound as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


def _run_criterion(code: str, req: CriterionRequest) -> list[dict]:
    out = _cli._CRITERION_EVALUATORS[code](req)
    certs = out if isinstance(out, tuple) else (out,)
    return _cert_entries(zip(_CRITERIA[code][1], certs))


def _estimate(config: Config) -> tuple[list, dict, list]:
    """``(certificates, oracle, warnings)`` of ``u ◇ C_phi``.  The operator's
    shape, its matrix rows and evaluator, is decided here, once."""
    from . import criteria, operators

    u, phi, space = config.u, config.phi, config.space
    unit_u = u is not None and u.monomial_degree() is not None
    unit_phi = phi is not None and (phi.monomial_degree() or 0) >= 1
    if phi is None:
        if u is None:
            raise ConfigError("estimate needs u, phi, or both")
        code = "cor24"
    elif u is None:
        code = "thm21" if unit_phi else "thm22"
    else:
        code = ("cor26" if unit_u else "thm23") if unit_phi else ("thm25" if unit_u else None)
    n_cols = space.truncation_degree
    T = _cli.build_matrix(u, phi, config.delta, operators.covering_rows(u, phi, n_cols), n_cols)

    warnings = list(T.warnings)
    if float(space.p) == 2.0:
        oracle_cert = operators.norm_estimate_l2(T, config.beta)
    else:
        oracle_cert = operators.norm_lower_search(T, config.beta, space.p,
                                                  seed=config.normalized["seed"])
    iterations = 0
    for note in oracle_cert.notes:
        if note.startswith(("iterations=", "evaluations=")):
            iterations = int(note.split("=", 1)[1])
    oracle = {
        "estimate": _render_scalar(oracle_cert.value),
        "iterations": iterations,
        "converged": oracle_cert.converged,
    }

    certificates = _cert_entries([("monomial-column-lower", _cli.column_lower_bound(T, config))])
    if code == "cor24":
        cert = criteria.multiplier_algebra_bound(config)
        unorm = norm(u, config.beta, float(space.p))
        scaled = 0.0 if unorm == 0.0 else cert.value * unorm
        cert = BoundCertificate(
            scaled, cert.kind, cert.attained_at, cert.truncation_degree, cert.tail_delta,
            cert.converged, cert.notes + ("scaled by the norm of u",))
        certificates.extend(_cert_entries([("multiplier-algebra-upper", cert)]))
    elif code is not None:
        try:
            certificates.extend(_run_criterion(code, config))
        except ValidationError as exc:
            warnings.append(f"criterion {code} not applicable: {exc}")
    else:
        warnings.append("no bound evaluator matches this operator shape")
    return certificates, oracle, warnings


def _check_algebra(config: Config) -> tuple[list, dict, list]:
    """``(certificates, result, warnings)``: the algebra constant, and the
    diamond-product laws on random exact series."""
    import random

    from . import criteria

    rng = random.Random(config.normalized["seed"])
    delta, pf = config.delta, float(config.space.p)

    def rand_series() -> TruncatedSeries:
        deg = rng.randint(0, _LAW_DEGREE)
        coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(deg + 1)]
        return TruncatedSeries(tuple(coeffs))

    bound_cert = criteria.multiplier_algebra_bound(config)
    factor = bound_cert.value if math.isfinite(bound_cert.value) else None

    n_product = 3 * _LAW_DEGREE + 1
    # Law name -> whether each sample passed it.
    laws = {"commutative": [], "associative": [], "bilinear": [], "unital": []}
    if factor is not None:
        laws["submultiplicative"] = []
    one = TruncatedSeries.unity(0)
    for _ in range(_LAW_SAMPLES):
        f, g, h = rand_series(), rand_series(), rand_series()
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        fg = diamond_product(f, g, delta, n_product)
        gf = diamond_product(g, f, delta, n_product)
        laws["commutative"].append(fg.coeffs == gf.coeffs)
        left = diamond_product(fg, h, delta, n_product)
        gh = diamond_product(g, h, delta, n_product)
        right = diamond_product(f, gh, delta, n_product)
        laws["associative"].append(left.coeffs == right.coeffs)
        lin_l = diamond_product(a * f + g, h, delta, n_product)
        lin_r = a * diamond_product(f, h, delta, n_product) + gh
        laws["bilinear"].append(lin_l.coeffs == lin_r.coeffs)
        unit = diamond_product(f, one, delta, n_product)
        laws["unital"].append(unit.coeffs == f.pad(n_product).coeffs)
        if factor is not None:
            lhs = norm(fg, config.beta, pf)
            rhs = factor * norm(f, config.beta, pf) * norm(g, config.beta, pf)
            laws["submultiplicative"].append(lhs <= rhs + 1e-9)

    result = {
        "samples": _LAW_SAMPLES,
        "laws": {name: {"passed": sum(ok), "failed": len(ok) - sum(ok)}
                 for name, ok in laws.items()},
        "all_passed": all(all(ok) for ok in laws.values()),
    }
    warnings = []
    if factor is None:
        warnings.append("algebra constant is infinite; submultiplicativity not sampled")
    return _cert_entries([("multiplier-algebra-upper", bound_cert)]), result, warnings


def run(command: str, config: Config, theorem: Optional[str] = None) -> dict:
    """Execute one command against a parsed config and return the report."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    certificates, oracle, result, warnings = [], None, None, []
    if command == "norm":
        f = _series_or_fail(config, "f")
        result = {"value": _render_scalar(norm(f, config.beta, float(config.space.p)))}
    elif command == "product":
        f = _series_or_fail(config, "f")
        g = _series_or_fail(config, "g")
        out = diamond_product(f, g, config.delta, config.space.truncation_degree)
        result = {"coeffs": _coeff_list(out)}
    elif command == "compose":
        f = _series_or_fail(config, "f")
        if config.phi is None:
            raise ConfigError("compose needs the symbol phi in the config")
        out = compose(f, config.phi, config.space.truncation_degree)
        result = {"coeffs": _coeff_list(out)}
    elif command == "theta":
        if config.phi is None:
            raise ConfigError("theta needs the symbol phi in the config")
        n = config.normalized.get("n")
        power = config.normalized.get("power")
        if n is None or power is None:
            raise ConfigError("theta needs integers 'n' and 'power' in the config")
        from .combinatorics import power_coefficient

        value = power_coefficient(config.phi, n, power)
        result = {"n": n, "power": power, "value": _render_scalar(value)}
    elif command == "bound":
        code = theorem or config.normalized.get("theorem")
        if code is None:
            raise ConfigError("bound needs --theorem or a 'theorem' config key")
        if code not in CRITERION_CODES:
            raise ConfigError(f"unknown theorem code {code!r}; expected one of {CRITERION_CODES}")
        config.normalized["theorem"] = code
        certificates = _run_criterion(code, config)
    elif command == "estimate":
        certificates, oracle, warnings = _estimate(config)
    else:
        certificates, result, warnings = _check_algebra(config)

    return {
        "command": command,
        "config": config.normalized,
        "certificates": certificates,
        "oracle": oracle,
        "result": result,
        "warnings": list(config.beta.warnings) + warnings,
        "elapsed_ms": None,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpsop",
        description="Weighted power-series operator bounds: JSON config in, JSON report out.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="path to a JSON config file (or inline JSON text)")
    parser.add_argument("--theorem", choices=CRITERION_CODES, default=None,
                        help="criterion code for the bound command")
    parser.add_argument("--out", default=None, help="write the report to this file")
    parser.add_argument("--quiet", action="store_true", help="omit the config echo")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed for randomized searches")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timing in the report (not byte-stable)")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            config.normalized["seed"] = args.seed
        started = time.perf_counter()
        report = run(args.command, config, theorem=args.theorem)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
    except (ConfigError, ValidationError) as exc:
        print(f"fpsop: error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"fpsop: resource guard: {exc}", file=sys.stderr)
        return 3

    if args.timings:
        report["elapsed_ms"] = round(elapsed_ms, 3)
        print(f"fpsop: {args.command} took {elapsed_ms:.1f} ms", file=sys.stderr)
    if args.quiet:
        report.pop("config")
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        if "int_max_str_digits" not in str(exc):
            raise
        print(f"fpsop: error: a result has more than {_digit_limit()} digits,"
              f" the most the interpreter writes an integer with: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    result = report.get("result")
    if isinstance(result, dict) and result.get("all_passed") is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
