"""Correctness gate for benchmark reports, written apart from fpsop.

Nothing here imports fpsop.  The shipped configs are checked against values
derived by hand; the seeded requests are checked against their definitions,
computed here from the config document with plain loops, and against the
sandwich ``lower <= oracle <= upper`` that every report must keep.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Relative tolerances.  Certificates are scanned sums and suprema, so they
# match a closed form to rounding; the power-iteration oracle matches to its
# own stopping rule, and an unconverged oracle to the looser 1e-3 that the
# repository's acceptance suite also allows for it.
CERT_RTOL = 1e-12
ORACLE_RTOL = 1e-9
UNCONVERGED_ORACLE_RTOL = 1e-3
FLOAT_COEFF_TOL = 1e-9

SQRT2 = math.sqrt(2)

# Values derived by hand for the shipped configs, by config name.
SHIPPED_EXPECTATIONS = {
    "bound-algebra-constant": {"certs": {"multiplier-algebra-upper": 1.5}},
    "bound-composition-dirichlet": {
        "certs": {"composition-norm-exact": math.sqrt(8193 / 2049)}},
    "bound-composition-geometric": {
        "certs": {"composition-power-sum-upper": 2 / math.sqrt(3),
                  "composition-monomial-lower": 1.0}},
    "bound-shifted-multiplier": {
        "certs": {"substitution-shift-upper": 1 / math.sqrt(3),
                  "substitution-shift-lower": 0.5}},
    "bound-substitution-stride": {
        "certs": {"substitution-stride-upper": math.sqrt(73 / 36),
                  "substitution-column-lower": 1.0}},
    "bound-progression-pair": {
        "certs": {"progression-ratio-upper": SQRT2, "progression-ratio-lower": SQRT2}},
    "estimate-substitution-tight": {
        "certs": {"monomial-column-lower": SQRT2, "progression-ratio-upper": SQRT2,
                  "progression-ratio-lower": SQRT2},
        "oracle": SQRT2},
    "estimate-composition-geometric": {
        "certs": {"monomial-column-lower": 1.0, "composition-norm-exact": 1.0},
        "oracle": 1.0},
    "bound-composition-divergent": {"divergent": ["composition-power-sum-upper"]},
    "bound-progression-divergent": {"divergent": ["progression-ratio-upper"]},
    "compose-affine-cube": {"coeffs": [1, 3, 3, 1] + [0] * 13},
    "product-binomial-kernel": {"coeffs": [0, 0, 2] + [0] * 14},
    "theta-shifted-square": {"value": 2},
    "norm-two-term": {"value": 3.0},
    "check-algebra-inverse-factorial": {"all_passed": True},
}


def _scalar(value):
    """A report scalar as a Fraction (exact entries) or a float."""
    if value == "inf":
        return math.inf
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    return float(value)


def _close(got, want, rtol: float) -> bool:
    if isinstance(got, float) and math.isinf(got):
        return isinstance(want, float) and math.isinf(want)
    return abs(float(got) - float(want)) <= rtol * max(1.0, abs(float(want)))


# --- weights, from their definitions -------------------------------------

def beta_function(spec):
    """``n -> beta(n)`` for a config's beta spec, exact where the spec is."""
    if spec is None:
        spec = "hardy"
    if isinstance(spec, str):
        spec = {"preset": spec}
    if "values" in spec:
        values = [_scalar(v) for v in spec["values"]]
        return values.__getitem__
    if "power" in spec:
        exponent = float(_scalar(spec["power"]))
        return lambda n: (n + 1) ** exponent
    name = spec["preset"]
    if name == "hardy":
        return lambda n: Fraction(1)
    if name == "bergman":
        return lambda n: (n + 1) ** -0.5
    if name == "dirichlet":
        return lambda n: (n + 1) ** 0.5
    raise ValueError(f"no definition for beta {spec!r}")


def delta_function(spec):
    """``n -> delta(n)`` for a config's delta spec, always exact."""
    if spec is None:
        spec = "ones"
    if isinstance(spec, str):
        spec = {"preset": spec}
    if "values" in spec:
        values = [_scalar(v) for v in spec["values"]]
        return values.__getitem__
    name = spec["preset"]
    if name == "ones":
        return lambda n: Fraction(1)
    if name == "factorial":
        return lambda n: Fraction(math.factorial(n))
    if name == "inverse-factorial":
        return lambda n: Fraction(1, math.factorial(n))
    if name == "geometric":
        ratio = _scalar(spec["ratio"])
        return lambda n: ratio ** n
    raise ValueError(f"no definition for delta {spec!r}")


def _ratio(num, den) -> float:
    if isinstance(num, Fraction) and isinstance(den, Fraction):
        return float(num / den)
    return float(num) / float(den)


def _degree(config: dict) -> int:
    return config.get("truncation", {}).get("degree", 512)


def thm21_supremum(config: dict) -> float:
    """``max_{n <= N} beta(m n) / beta(n)`` for the monomial symbol ``z**m``."""
    beta = beta_function(config.get("beta"))
    m = config["phi"]["monomial"]
    return max(_ratio(beta(m * n), beta(n)) for n in range(_degree(config) + 1))


def cor26_supremum(config: dict) -> float:
    """The norm of ``f -> z**s diamond f(z**m)`` scanned over inputs ``z**j``, ``j <= N``.

    ``z**j`` maps to ``delta(s + m j) / (delta(s) delta(m j))`` times
    ``z**(s + m j)``, so the ratio is that factor times
    ``beta(s + m j) / beta(j)``.
    """
    beta = beta_function(config.get("beta"))
    delta = delta_function(config.get("delta"))
    s, m = config["u"]["monomial"], config["phi"]["monomial"]
    best = 0.0
    for j in range(_degree(config) + 1):
        n = s + m * j
        kernel = delta(n) / (delta(s) * delta(m * j))
        weight = beta(n)
        if isinstance(weight, Fraction):
            value = float(kernel * weight / beta(j))
        else:
            value = float(kernel) * weight / float(beta(j))
        best = max(best, value)
    return best


def _exact_series(coeffs) -> list:
    return [Fraction(v) if isinstance(v, float) else _scalar(v) for v in coeffs]


def _multiply(a: list, b: list, top: int) -> list:
    out = [Fraction(0)] * (top + 1)
    for i, x in enumerate(a):
        if x and i <= top:
            for j, y in enumerate(b[: top - i + 1]):
                out[i + j] += x * y
    return out


def compose_reference(config: dict) -> list:
    """``f(phi(z))`` truncated at N, exactly, by Horner's rule."""
    top = _degree(config)
    f = _exact_series(config["f"]["coeffs"])
    phi = _exact_series(config["phi"]["coeffs"])
    out = [Fraction(0)] * (top + 1)
    for c in reversed(f):
        out = _multiply(out, phi, top)
        out[0] += c
    return out


def theta_reference(config: dict):
    """The coefficient of ``z**n`` in ``phi(z)**power``, by repeated products."""
    n = config["n"]
    phi = _exact_series(config["phi"]["coeffs"])
    power = [Fraction(1)]
    for _ in range(config["power"]):
        power = _multiply(power, phi, n)
    return power[n] if n < len(power) else Fraction(0)


def product_reference(config: dict) -> list:
    """The diamond product from its defining double sum, exactly."""
    top = _degree(config)
    delta = delta_function(config.get("delta"))
    f = _exact_series(config["f"]["coeffs"])
    g = _exact_series(config["g"]["coeffs"])
    out = [Fraction(0)] * (top + 1)
    for k, x in enumerate(f):
        for j, y in enumerate(g):
            n = k + j
            if n <= top and x and y:
                out[n] += delta(n) / (delta(k) * delta(j)) * x * y
    return out


# --- checks ----------------------------------------------------------------

def _certs(report: dict) -> dict:
    return {c["name"]: c for c in report.get("certificates") or []}


def sandwich_failures(report: dict) -> list[str]:
    """``lower <= oracle <= upper`` and ``lower <= upper`` inside one report.

    An exact certificate counts as a lower bound, and as an upper bound when
    it converged.  An upper that did not converge certifies nothing and is
    skipped.  An infinite lower is only allowed as a divergence finding,
    with ``converged=false``.
    """
    failures = []
    lowers, uppers = [], []
    for name, cert in _certs(report).items():
        value = _scalar(cert["value"])
        if cert["kind"] in ("lower", "exact"):
            if math.isinf(value) and cert["converged"]:
                failures.append(f"{name}: infinite lower bound marked converged")
            elif not math.isinf(value):
                lowers.append((name, float(value)))
        if cert["kind"] in ("upper", "exact") and cert["converged"]:
            uppers.append((name, float(value)))
    for lo_name, lo in lowers:
        for up_name, up in uppers:
            if lo > up * (1 + CERT_RTOL) + CERT_RTOL:
                failures.append(f"{lo_name}={lo!r} above {up_name}={up!r}")
    oracle = report.get("oracle")
    if oracle is not None:
        est = float(_scalar(oracle["estimate"]))
        rtol = ORACLE_RTOL if oracle["converged"] else UNCONVERGED_ORACLE_RTOL
        for lo_name, lo in lowers:
            if lo > est * (1 + rtol) + rtol:
                failures.append(f"{lo_name}={lo!r} above the oracle {est!r}")
        for up_name, up in uppers:
            if est > up * (1 + CERT_RTOL) + CERT_RTOL:
                failures.append(f"oracle {est!r} above {up_name}={up!r}")
    return failures


def _coeff_failures(got: list, want: list, exact: bool) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} coefficients, expected {len(want)}"]
    scale = max([1.0] + [abs(float(w)) for w in want])
    for i, (g, w) in enumerate(zip(got, want)):
        g = _scalar(g)
        if exact:
            if not isinstance(g, Fraction) or g != w:
                return [f"coefficient {i} is {g}, expected {w}"]
        elif abs(float(g) - float(w)) > FLOAT_COEFF_TOL * scale:
            return [f"coefficient {i} is {float(g)!r}, expected {float(w)!r}"]
    return []


def expectation_failures(report: dict, expect: dict) -> list[str]:
    """Compare a report with hand-derived expected values."""
    failures = []
    certs = _certs(report)
    for name, want in expect.get("certs", {}).items():
        if name not in certs:
            failures.append(f"missing certificate {name}")
        elif not _close(_scalar(certs[name]["value"]), want, CERT_RTOL):
            failures.append(f"{name}={certs[name]['value']!r}, expected {want!r}")
    if "oracle" in expect:
        got = (report.get("oracle") or {}).get("estimate")
        if got is None or not _close(_scalar(got), expect["oracle"], ORACLE_RTOL):
            failures.append(f"oracle {got!r}, expected {expect['oracle']!r}")
    for name in expect.get("divergent", []):
        cert = certs.get(name)
        if cert is None or cert["value"] != "inf" or cert["converged"]:
            failures.append(f"{name} should report inf with converged=false, got {cert!r}")
    result = report.get("result") or {}
    if "coeffs" in expect:
        want = [Fraction(v) for v in expect["coeffs"]]
        failures += _coeff_failures(result.get("coeffs", []), want, exact=True)
    if "value" in expect:
        got = result.get("value")
        if got is None or not _close(_scalar(got), expect["value"], CERT_RTOL):
            failures.append(f"result {got!r}, expected {expect['value']!r}")
    if "all_passed" in expect and result.get("all_passed") is not expect["all_passed"]:
        failures.append(f"all_passed is {result.get('all_passed')!r}")
    return failures


def definition_failures(report: dict, config: dict, definition: str) -> list[str]:
    """Compare a report with the definition it is supposed to compute."""
    certs = _certs(report)
    if definition == "thm21":
        want = thm21_supremum(config)
        cert = certs.get("composition-norm-exact")
        if cert is None or not _close(_scalar(cert["value"]), want, CERT_RTOL):
            return [f"composition-norm-exact={cert and cert['value']!r}, "
                    f"weight-ratio supremum is {want!r}"]
        return []
    if definition == "cor26":
        want = cor26_supremum(config)
        failures = []
        lower, upper = certs.get("progression-ratio-lower"), certs.get("progression-ratio-upper")
        if lower is None or not _close(_scalar(lower["value"]), want, CERT_RTOL):
            failures.append(f"progression-ratio-lower={lower and lower['value']!r}, "
                            f"ratio supremum is {want!r}")
        if upper is None or (upper["converged"]
                             and float(_scalar(upper["value"])) < want * (1 - CERT_RTOL)):
            failures.append(f"progression-ratio-upper={upper and upper['value']!r} "
                            f"below the ratio supremum {want!r}")
        return failures
    if definition == "theta":
        got, want = (report.get("result") or {}).get("value"), theta_reference(config)
        if got is None or _scalar(got) != want:
            return [f"theta {got!r}, expected {want}"]
        return []
    coeffs = (report.get("result") or {}).get("coeffs", [])
    if definition == "compose":
        exact = all(not isinstance(v, float) for v in
                    config["f"]["coeffs"] + config["phi"]["coeffs"])
        return _coeff_failures(coeffs, compose_reference(config), exact)
    if definition == "product":
        exact = all(not isinstance(v, float) for v in
                    config["f"]["coeffs"] + config["g"]["coeffs"])
        return _coeff_failures(coeffs, product_reference(config), exact)
    raise ValueError(f"unknown definition {definition!r}")


def check_report(request, report: dict) -> list[str]:
    """Every failed check of one report; an empty list means it passed."""
    failures = sandwich_failures(report)
    expect = dict(request.expect)
    if request.config_path is not None:
        expect.update(SHIPPED_EXPECTATIONS.get(request.id, {}))
    definition = expect.pop("definition", None)
    failures += expectation_failures(report, expect)
    if definition is not None:
        failures += definition_failures(report, request.config, definition)
    return failures
