"""Batch command-line front end: JSON config in, JSON report out.

One command per invocation.  Reports are deterministic for a fixed config
and seed: timing is only included when explicitly requested, and infinite
values serialize as the string ``"inf"`` to stay inside plain JSON.

Exit codes: 0 success (a divergent certificate is a finding, not an error),
1 internal failure or violated algebra law, 2 configuration or usage error,
3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from . import criteria, operators
from .combinatorics import power_coefficient
from .criteria import CriterionRequest
from .operators import ResourceLimitError, build_matrix, column_lower_bound
from .series import PolynomialSymbol, TruncatedSeries, compose, diamond_product, norm
from .weights import (
    DeltaSequence,
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


def _parse_scalar(value, what: str):
    if isinstance(value, str):
        return _parse_text(value, what)[1]
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got a boolean")
    if isinstance(value, (int, float)):
        return value
    raise ConfigError(f"{what} must be a number or 'num/den' string, got {type(value).__name__}")


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
    scalar = _parse_scalar(value, what)
    return _render_scalar(scalar), scalar


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


def _build_series(norm_spec: Optional[dict], default_unity: bool = False
                  ) -> Optional[TruncatedSeries]:
    if norm_spec is None:
        return TruncatedSeries.unity(0) if default_unity else None
    if "monomial" in norm_spec:
        return TruncatedSeries.monomial(norm_spec["monomial"])
    return TruncatedSeries.from_coeffs(
        _parse_scalar(v, "series coefficient") for v in norm_spec["coeffs"]
    )


def _build_symbol(norm_spec: Optional[dict]) -> Optional[PolynomialSymbol]:
    if norm_spec is None:
        return None
    if "monomial" in norm_spec:
        return PolynomialSymbol.monomial(norm_spec["monomial"])
    return PolynomialSymbol.from_coeffs(
        _parse_scalar(v, "symbol coefficient") for v in norm_spec["coeffs"]
    )


_TOP_KEYS = {
    "p", "beta", "delta", "u", "phi", "f", "g", "stride", "shift",
    "theorem", "truncation", "seed", "n", "power",
}

_TRUNC_KEYS = {"degree", "power_limit", "tail_window", "tolerance", "cap"}


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


@dataclass
class Config:
    """A validated configuration with constructed weight and series objects.

    ``normalized`` is the canonical JSON-ready echo; two configs are equal
    exactly when their normalized documents are equal, so a serialize/parse
    round trip is the identity.
    """

    normalized: dict
    p: object = field(compare=False)
    beta: WeightSequence = field(compare=False)
    delta: DeltaSequence = field(compare=False)
    u: TruncatedSeries = field(compare=False)
    u_given: bool = field(compare=False)
    phi: Optional[PolynomialSymbol] = field(compare=False)
    space: SpaceConfig = field(compare=False)
    power_limit: int = field(compare=False)
    cap: float = field(compare=False)
    seed: int = field(compare=False)

    def serialize(self) -> str:
        return json.dumps(self.normalized, indent=2, sort_keys=True) + "\n"

    def request(self) -> CriterionRequest:
        return CriterionRequest(
            beta=self.beta, delta=self.delta, space=self.space,
            u=self.u if self.u_given else None, phi=self.phi,
            stride=self.normalized["stride"], shift=self.normalized["shift"],
            inner_power_limit=self.power_limit, cap=self.cap,
        )


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

    p = _parse_scalar(raw.get("p", 2), "p")
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
    power_limit = _check_int(trunc.get("power_limit", degree), "truncation.power_limit")
    cap = _check_positive(trunc.get("cap", 1e12), "truncation.cap")

    theorem = raw.get("theorem")
    if theorem is not None and theorem not in CRITERION_CODES:
        raise ConfigError(f"unknown theorem code {theorem!r}; expected one of {CRITERION_CODES}")

    beta_spec, build_beta = _normalize_weight_spec(raw.get("beta"), "beta")
    delta_spec, build_delta = _normalize_weight_spec(raw.get("delta"), "delta")
    normalized = {
        "p": _render_scalar(p),
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
            "power_limit": power_limit,
            "tail_window": tail_window,
            "tolerance": tolerance,
            "cap": cap,
        },
        "seed": _check_int(raw.get("seed", 0), "seed"),
    }

    try:
        beta = build_beta()
        delta = build_delta()
        u = _build_series(normalized["u"], default_unity=True)
        phi = _build_symbol(normalized["phi"])
        space = SpaceConfig(p=p, truncation_degree=degree,
                            tail_window=tail_window, tolerance=tolerance)
        config = Config(
            normalized=normalized, p=p, beta=beta, delta=delta, u=u,
            u_given=normalized["u"] is not None, phi=phi, space=space,
            power_limit=power_limit, cap=cap, seed=normalized["seed"],
        )
        config.request()  # rejects a stride or shift that disagrees with phi or u
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _series_or_fail(config: Config, key: str) -> TruncatedSeries:
    spec = config.normalized.get(key)
    if spec is None:
        raise ConfigError(f"command needs the series {key!r} in the config")
    return _build_series(spec)


def _cert_entries(pairs) -> list[dict]:
    return [{"name": name, **cert.as_report_dict()} for name, cert in pairs]


def _coeff_list(series: TruncatedSeries) -> list:
    return [_render_scalar(c) for c in series.coeffs]


_CRITERION_NAMES = {
    "thm21": ("composition-norm-exact",),
    "thm22": ("composition-power-sum-upper", "composition-monomial-lower"),
    "thm23": ("substitution-stride-upper", "substitution-column-lower"),
    "cor24": ("multiplier-algebra-upper",),
    "thm25": ("substitution-shift-upper", "substitution-shift-lower"),
    "cor26": ("progression-ratio-upper", "progression-ratio-lower"),
}

_CRITERION_EVALUATORS = {
    "thm21": criteria.composition_norm_monomial,
    "thm22": criteria.composition_bounds_polynomial,
    "thm23": criteria.substitution_bounds_monomial_symbol,
    "cor24": criteria.multiplier_algebra_bound,
    "thm25": criteria.substitution_bounds_monomial_multiplier,
    "cor26": criteria.substitution_bounds_monomial_pair,
}


def _run_criterion(code: str, config: Config) -> list[dict]:
    out = _CRITERION_EVALUATORS[code](config.request())
    certs = out if isinstance(out, tuple) else (out,)
    return _cert_entries(zip(_CRITERION_NAMES[code], certs))


def _pick_estimate_criterion(config: Config) -> Optional[str]:
    has_u = config.u_given
    has_phi = config.phi is not None
    u_mono = config.u.monomial_degree() if has_u else None
    phi_mono = config.phi.monomial_degree() if has_phi else None
    if not has_u and has_phi:
        return "thm21" if phi_mono is not None and phi_mono >= 1 else "thm22"
    if has_u and not has_phi:
        return "cor24"
    if has_u and has_phi:
        if u_mono is not None and phi_mono is not None and phi_mono >= 1:
            return "cor26"
        if phi_mono is not None and phi_mono >= 1:
            return "thm23"
        if u_mono is not None:
            return "thm25"
    return None


def _estimate(config: Config) -> dict:
    has_phi = config.phi is not None
    if not config.u_given and not has_phi:
        raise ConfigError("estimate needs u, phi, or both")
    if config.u_given and has_phi:
        kind = "substitution"
    elif has_phi:
        kind = "composition"
    else:
        kind = "diamond-mult"
    u = config.u if config.u_given else None
    n_cols = config.space.truncation_degree
    u_top = max((i for i, c in enumerate(config.u.coeffs) if c != 0), default=0) \
        if config.u_given else 0
    phi_deg = config.phi.degree if has_phi else 0
    if kind == "composition":
        n_rows = max(phi_deg * n_cols, n_cols)
    elif kind == "diamond-mult":
        n_rows = n_cols + u_top
    else:
        n_rows = phi_deg * n_cols + u_top
    T = build_matrix(kind, u, config.phi, config.delta, n_rows, n_cols)

    warnings = list(T.warnings)
    if float(config.p) == 2.0:
        oracle_cert = operators.norm_estimate_l2(T, config.beta)
    else:
        oracle_cert = operators.norm_lower_search(T, config.beta, config.p, seed=config.seed)
    iterations = 0
    for note in oracle_cert.notes:
        if note.startswith(("iterations=", "evaluations=")):
            iterations = int(note.split("=", 1)[1])
    oracle = {
        "estimate": _render_scalar(oracle_cert.value),
        "iterations": iterations,
        "converged": oracle_cert.converged,
    }

    pairs = [("monomial-column-lower",
              column_lower_bound(T, config.beta, config.p,
                                 tail_window=config.space.tail_window,
                                 tolerance=config.space.tolerance))]
    code = _pick_estimate_criterion(config)
    certificates = _cert_entries(pairs)
    if code == "cor24":
        cert = criteria.multiplier_algebra_bound(config.request())
        unorm = norm(config.u, config.beta, float(config.p))
        scaled = 0.0 if unorm == 0.0 else cert.value * unorm
        cert = dataclasses.replace(
            cert, value=scaled, notes=cert.notes + ("scaled by the norm of u",))
        certificates.extend(_cert_entries([("multiplier-algebra-upper", cert)]))
    elif code is not None:
        try:
            certificates.extend(_run_criterion(code, config))
        except ValidationError as exc:
            warnings.append(f"criterion {code} not applicable: {exc}")
    else:
        warnings.append("no bound evaluator matches this operator shape")
    return {
        "certificates": certificates,
        "oracle": oracle,
        "result": None,
        "warnings": warnings,
    }


def _check_algebra(config: Config) -> dict:
    rng = random.Random(config.seed)

    def rand_series() -> TruncatedSeries:
        deg = rng.randint(0, _LAW_DEGREE)
        coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(deg + 1)]
        return TruncatedSeries(tuple(coeffs))

    bound_cert = criteria.multiplier_algebra_bound(config.request())
    factor = bound_cert.value if math.isfinite(bound_cert.value) else None

    n_product = 3 * _LAW_DEGREE + 1
    laws = {"commutative": 0, "associative": 0, "bilinear": 0, "unital": 0,
            "submultiplicative": 0}
    failures = {k: 0 for k in laws}
    one = TruncatedSeries.unity(0)
    for _ in range(_LAW_SAMPLES):
        f, g, h = rand_series(), rand_series(), rand_series()
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        fg = diamond_product(f, g, config.delta, n_product)
        gf = diamond_product(g, f, config.delta, n_product)
        _tally(laws, failures, "commutative", fg.coeffs == gf.coeffs)
        left = diamond_product(fg, h, config.delta, n_product)
        right = diamond_product(f, diamond_product(g, h, config.delta, n_product),
                                config.delta, n_product)
        _tally(laws, failures, "associative", left.coeffs == right.coeffs)
        lin_l = diamond_product(a * f + g, h, config.delta, n_product)
        lin_r = a * diamond_product(f, h, config.delta, n_product) + diamond_product(
            g, h, config.delta, n_product)
        _tally(laws, failures, "bilinear", lin_l.coeffs == lin_r.coeffs)
        unit = diamond_product(f, one, config.delta, n_product)
        _tally(laws, failures, "unital",
               unit.coeffs == f.pad(n_product).coeffs)
        if factor is not None:
            lhs = norm(fg, config.beta, float(config.p))
            rhs = factor * norm(f, config.beta, float(config.p)) * norm(
                g, config.beta, float(config.p))
            _tally(laws, failures, "submultiplicative", lhs <= rhs + 1e-9)
    if factor is None:
        laws.pop("submultiplicative")
        failures.pop("submultiplicative")

    result = {
        "samples": _LAW_SAMPLES,
        "laws": {
            name: {"passed": laws[name], "failed": failures[name]}
            for name in laws
        },
        "all_passed": all(v == 0 for v in failures.values()),
    }
    warnings = []
    if factor is None:
        warnings.append("algebra constant is infinite; submultiplicativity not sampled")
    return {
        "certificates": _cert_entries([("multiplier-algebra-upper", bound_cert)]),
        "oracle": None,
        "result": result,
        "warnings": warnings,
    }


def _tally(laws: dict, failures: dict, name: str, ok: bool) -> None:
    if ok:
        laws[name] += 1
    else:
        failures[name] += 1


def run(command: str, config: Config, theorem: Optional[str] = None) -> dict:
    """Execute one command against a parsed config and return the report."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    body: dict
    if command == "norm":
        f = _series_or_fail(config, "f")
        body = {
            "certificates": [], "oracle": None,
            "result": {"value": _render_scalar(norm(f, config.beta, float(config.p)))},
            "warnings": [],
        }
    elif command == "product":
        f = _series_or_fail(config, "f")
        g = _series_or_fail(config, "g")
        out = diamond_product(f, g, config.delta, config.space.truncation_degree)
        body = {
            "certificates": [], "oracle": None,
            "result": {"coeffs": _coeff_list(out)},
            "warnings": [],
        }
    elif command == "compose":
        f = _series_or_fail(config, "f")
        if config.phi is None:
            raise ConfigError("compose needs the symbol phi in the config")
        out = compose(f, config.phi, config.space.truncation_degree)
        body = {
            "certificates": [], "oracle": None,
            "result": {"coeffs": _coeff_list(out)},
            "warnings": [],
        }
    elif command == "theta":
        if config.phi is None:
            raise ConfigError("theta needs the symbol phi in the config")
        n = config.normalized.get("n")
        power = config.normalized.get("power")
        if n is None or power is None:
            raise ConfigError("theta needs integers 'n' and 'power' in the config")
        value = power_coefficient(config.phi, n, power)
        body = {
            "certificates": [], "oracle": None,
            "result": {"n": n, "power": power, "value": _render_scalar(value)},
            "warnings": [],
        }
    elif command == "bound":
        code = theorem or config.normalized.get("theorem")
        if code is None:
            raise ConfigError("bound needs --theorem or a 'theorem' config key")
        if code not in CRITERION_CODES:
            raise ConfigError(f"unknown theorem code {code!r}; expected one of {CRITERION_CODES}")
        config.normalized["theorem"] = code
        body = {
            "certificates": _run_criterion(code, config),
            "oracle": None, "result": None, "warnings": [],
        }
    elif command == "estimate":
        body = _estimate(config)
    else:
        body = _check_algebra(config)

    warnings = list(config.beta.warnings) + list(body.pop("warnings"))
    return {
        "command": command,
        "config": config.normalized,
        "certificates": body["certificates"],
        "oracle": body["oracle"],
        "result": body["result"],
        "warnings": warnings,
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
            config.seed = args.seed
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
