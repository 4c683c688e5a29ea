"""Seeded random ``bound`` and ``estimate`` configs, and their reports.

``random_configs(seed, count)`` draws ``(command, theorem, config)`` triples
over the config space the evaluators and the oracles serve: the beta presets,
power laws from -150 to 150 (where squares and weight ratios leave float
range), explicit rational lists (some too short for the scan, which must fail
with a message), every delta preset and explicit delta lists, exact and float
multipliers and symbols, monomials among them, and p in {1, 3/2, 2, 5/2, 3}.
``report_text`` runs one of them in process, as ``fpsop <command> --quiet``
does, and returns the printed report or the error message, so two versions
of the package can be compared byte for byte::

    PYTHONPATH=src python tests/configgen.py --seed 11 --count 1200

prints one SHA-256 per config and one over all of them, then the census:
how many certificates of the reports break the sandwich (``defects``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from collections import Counter

from fpsop.cli import ConfigError, parse_config, run
from fpsop.operators import ResourceLimitError
from fpsop.weights import ValidationError

# Relative slack of the sandwich checks, ``CERT_RTOL`` in bench/checks.py.
RTOL = 1e-12

DEFECTS = ("inf-lower", "upper-below-oracle", "upper-below-lower")

THEOREMS = ("thm21", "thm22", "thm23", "cor24", "thm25", "cor26")

P_VALUES = (1, "3/2", 2, 2.5, 3)

POWER_LAWS = (-150.0, -1.5, -0.5, 0.5, 60.0, 150.0)

DELTA_PRESETS = ("ones", "factorial", "inverse-factorial")

MONOMIALS = tuple({"monomial": m} for m in range(4))

# Non-monomial multipliers and symbols, exact and float, by mode.
SERIES = {
    "exact": ({"coeffs": [1, "1/2"]}, {"coeffs": ["2/3", 0, "1/3"]}),
    "float": ({"coeffs": [1.0, 0.25]}, {"coeffs": [0.5, -0.375, 0.125]}),
}
SYMBOLS = {
    "exact": ({"coeffs": [0, "1/2", "1/2"]}, {"coeffs": ["1/4", "1/4"]},
              {"coeffs": [0, "9/10", "1/10"]}),
    "float": ({"coeffs": [0.0, 0.625, 0.25]}, {"coeffs": [0.125, 0.5]}),
}

# The operator shape each evaluator needs: (multiplier, symbol), each None
# (absent), "unit" (a unit monomial, degree >= 1 for the symbol) or "any".
SHAPES = {
    "thm21": (None, "unit"), "thm22": (None, "any"), "thm23": ("any", "unit"),
    "cor24": ("any", None), "thm25": ("unit", "any"), "cor26": ("unit", "unit"),
}


def _beta(rng: random.Random, degree: int):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(("hardy", "bergman", "dirichlet"))
    if kind in (1, 4):
        return {"power": rng.choice(POWER_LAWS)}
    # Long enough for most scans; cor26 and thm21 read beyond the degree.
    size = rng.choice((degree + 1, 2 * degree + 2, 3 * degree + 4))
    if kind == 2:
        return {"values": ["1"] + [f"1/{n + 1}" for n in range(1, size)]}
    return {"values": ["1"] + [f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
                               for _ in range(1, size)]}


def _delta(rng: random.Random, degree: int):
    kind = rng.randrange(5)
    if kind < 3:
        return DELTA_PRESETS[kind]
    if kind == 3:
        return {"preset": "geometric", "ratio": rng.choice(("1/2", "2/3", "3"))}
    size = rng.choice((degree + 1, 3 * degree + 4))
    return {"values": [1] + [f"{rng.randint(1, 5)}/{rng.randint(1, 5)}"
                             for _ in range(1, size)]}


def random_configs(seed: int, count: int) -> list[tuple[str, object, dict]]:
    """``count`` seeded ``(command, theorem, config)`` triples."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(6, 24)
        config = {
            "p": rng.choice(P_VALUES),
            "beta": _beta(rng, degree),
            "delta": _delta(rng, degree),
            "truncation": {"degree": degree, "tail_window": rng.randint(1, 5)},
            "seed": rng.randrange(100),
        }
        theorem = rng.choice(THEOREMS)
        shape = SHAPES[theorem]
        if rng.random() < 0.2:  # any shape, fitting the evaluator or not
            shape = rng.choice(((None, "any"), ("any", None), ("any", "any")))
        mode = rng.choice(("exact", "exact", "float"))
        for key, kind, pool, units in (("u", shape[0], SERIES, MONOMIALS),
                                       ("phi", shape[1], SYMBOLS, MONOMIALS[1:])):
            if kind == "unit":
                config[key] = rng.choice(units)
            elif kind == "any":
                config[key] = rng.choice(MONOMIALS + pool[mode])
        if rng.random() < 0.5:
            out.append(("estimate", None, config))
        else:
            out.append(("bound", theorem, config))
    return out


def report_text(command: str, theorem, config: dict) -> str:
    """The ``--quiet`` report of one config, or ``error: <message>``."""
    try:
        report = run(command, parse_config(json.dumps(config)), theorem=theorem)
    except (ConfigError, ValidationError, ResourceLimitError) as exc:
        return f"error: {exc}"
    report.pop("config")
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _value(v) -> float:
    return math.inf if v == "inf" else v


def defects(report: dict) -> list[tuple[str, str]]:
    """The sandwich defects of one report, as ``(kind, detail)`` pairs:
    ``inf-lower`` for each lower or exact certificate that reads ``inf``,
    ``upper-below-oracle`` for each converged upper below the converged
    oracle, and ``upper-below-lower`` for each converged upper below a finite
    lower or exact certificate, with the relative slack ``RTOL``."""
    certs = report["certificates"]
    lowers = [(c["name"], _value(c["value"])) for c in certs if c["kind"] != "upper"]
    out = [("inf-lower", name) for name, v in lowers if math.isinf(v)]
    oracle = report.get("oracle")
    for c in certs:
        if c["kind"] != "upper" or not c["converged"]:
            continue
        up = _value(c["value"])
        if oracle and oracle["converged"] and _value(oracle["estimate"]) > up * (1 + RTOL):
            out.append(("upper-below-oracle", f"{c['name']}={up!r} < {oracle['estimate']!r}"))
        above = [f"{name}={v!r}" for name, v in lowers if up * (1 + RTOL) < v < math.inf]
        if above:
            out.append(("upper-below-lower", f"{c['name']}={up!r} < {', '.join(above)}"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--count", type=int, default=1200)
    args = parser.parse_args(argv)
    total, census = hashlib.sha256(), Counter()
    for i, (command, theorem, config) in enumerate(random_configs(args.seed, args.count)):
        text = report_text(command, theorem, config)
        digest = hashlib.sha256(text.encode()).hexdigest()
        total.update(digest.encode())
        print(i, digest)
        if not text.startswith("error: "):
            census.update(kind for kind, _ in defects(json.loads(text)))
    print("all", total.hexdigest())
    print("census", " ".join(f"{kind}={census[kind]}" for kind in DEFECTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
