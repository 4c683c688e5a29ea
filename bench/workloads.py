"""Seeded request lists for the three benchmark workloads.

Each workload fixes its list of request shapes: the command, the evaluator,
the weight families and the truncation degree.  The seed draws only the free
values (rational coefficients of ``phi`` and ``u``, geometric ratios,
power-law exponents, strides and shifts in small fixed ranges, and the
request order).  Where a value sets the cost of a heavy request it is drawn
from a set whose members cost about the same: signs, or numerators of equal
bit length over a fixed denominator.  So two seeds give requests of the same
cost with different values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("cli-configs", "exact-scans", "float-oracle")

# The shipped configs, fixed by name, with the command each one is run with.
CLI_CONFIGS = (
    ("bound-algebra-constant", "bound"),
    ("bound-composition-dirichlet", "bound"),
    ("bound-composition-divergent", "bound"),
    ("bound-composition-geometric", "bound"),
    ("bound-progression-divergent", "bound"),
    ("bound-progression-pair", "bound"),
    ("bound-shifted-multiplier", "bound"),
    ("bound-substitution-stride", "bound"),
    ("check-algebra-inverse-factorial", "check-algebra"),
    ("compose-affine-cube", "compose"),
    ("estimate-composition-geometric", "estimate"),
    ("estimate-substitution-tight", "estimate"),
    ("norm-two-term", "norm"),
    ("product-binomial-kernel", "product"),
    ("theta-shifted-square", "theta"),
)


@dataclass(frozen=True)
class Request:
    """One request of a workload.

    ``shape`` holds the parts that are fixed for the workload and decide the
    cost; ``config`` is the in-process config document, or ``None`` for a
    shipped config run as its own process from ``config_path``.
    """

    id: str
    command: str
    shape: dict
    config: Optional[dict] = None
    config_path: Optional[str] = None
    theorem: Optional[str] = None
    expect: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        return {"id": self.id, "command": self.command, "shape": self.shape,
                "config_path": self.config_path, "theorem": self.theorem}


def _frac(num: int, den: int) -> str:
    return f"{num}/{den}"


def _signed(rng: random.Random, num: int, den: int) -> str:
    return _frac(rng.choice((1, -1)) * num, den)


def _geometric_ratio(rng: random.Random) -> tuple[int, int]:
    # Odd numerators in 49..63 over 64: every ratio lies in (3/4, 1) and its
    # powers grow by 5.6 to 6 bits per step, so exact costs barely differ.
    return rng.randrange(49, 64, 2), 64


def _geometric_values(num: int, den: int, count: int) -> list[str]:
    return [_frac(num ** n, den ** n) for n in range(count)]


def _float_coeffs(rng: random.Random, count: int, scale: float) -> list[float]:
    return [round(rng.uniform(-scale, scale), 6) for _ in range(count)]


def _bound(rid, code, shape, config, expect=None) -> Request:
    shape = {"command": "bound", "theorem": code, **shape}
    return Request(id=rid, command="bound", shape=shape, config=config,
                   theorem=code, expect=expect or {})


def _estimate(rid, shape, config, expect=None) -> Request:
    return Request(id=rid, command="estimate", shape={"command": "estimate", **shape},
                   config=config, expect=expect or {})


def cli_requests(seed: int) -> list[Request]:
    """The 15 shipped configs in seeded order."""
    order = list(CLI_CONFIGS)
    random.Random(seed).shuffle(order)
    return [
        Request(id=name, command=command,
                shape={"command": command, "config": name},
                config_path=f"configs/{name}.json")
        for name, command in order
    ]


def exact_requests(seed: int) -> list[Request]:
    """Bound and estimate requests on exact rational weights."""
    rng = random.Random(seed)
    out = []

    n = 128
    out.append(_bound(
        "E01-cor24", "cor24",
        {"beta": "hardy", "delta": "inverse-factorial", "degree": n},
        {"beta": "hardy", "delta": "inverse-factorial", "theorem": "cor24",
         "truncation": {"degree": n}}))

    # The stride is fixed wherever it sets the size of the weight list or of
    # the matrix, since it would change the cost.
    n, stride = 256, 2
    num, den = _geometric_ratio(rng)
    out.append(_bound(
        "E02-thm21", "thm21",
        {"beta": "geometric-list", "delta": "ones", "stride": stride, "degree": n},
        {"beta": {"values": _geometric_values(num, den, stride * n + 1)},
         "phi": {"monomial": stride}, "theorem": "thm21",
         "truncation": {"degree": n}},
        {"definition": "thm21"}))

    n = 80
    out.append(_bound(
        "E03-thm22", "thm22",
        {"beta": "hardy", "delta": "ones", "phi": "exact-quadratic", "degree": n},
        {"beta": "hardy",
         "phi": {"coeffs": [_signed(rng, 1, 5), _signed(rng, 1, 2), _signed(rng, 1, 4)]},
         "theorem": "thm22", "truncation": {"degree": n}}))

    n = 160
    out.append(_bound(
        "E04-thm23", "thm23",
        {"beta": "hardy", "delta": "inverse-factorial", "stride": 2, "degree": n},
        {"beta": "hardy", "delta": "inverse-factorial",
         "u": {"coeffs": [1, _signed(rng, rng.choice((1, 2)), 3)]},
         "phi": {"monomial": 2}, "theorem": "thm23", "truncation": {"degree": n}}))

    n = 96
    out.append(_bound(
        "E05-thm25", "thm25",
        {"beta": "hardy", "delta": "ones", "phi": "exact-quadratic", "degree": n},
        {"beta": "hardy", "u": {"monomial": rng.choice((1, 2, 3))},
         "phi": {"coeffs": [0, _signed(rng, 1, 2), _signed(rng, 1, 3)]},
         "theorem": "thm25", "truncation": {"degree": n}}))

    n, stride = 384, 2
    num, den = _geometric_ratio(rng)
    shift = rng.choice((1, 2, 3))
    out.append(_bound(
        "E06-cor26", "cor26",
        {"beta": "geometric-list", "delta": "factorial", "stride": stride, "degree": n},
        {"beta": {"values": _geometric_values(num, den, shift + stride * n + 1)},
         "delta": "factorial", "u": {"monomial": shift}, "phi": {"monomial": stride},
         "theorem": "cor26", "truncation": {"degree": n}},
        {"definition": "cor26"}))

    n = 48
    out.append(_estimate(
        "E07-estimate-diamond", {"kind": "diamond-mult", "beta": "hardy",
                                 "delta": "inverse-factorial", "p": 2, "degree": n},
        {"beta": "hardy", "delta": "inverse-factorial",
         "u": {"coeffs": [1, _signed(rng, rng.choice((1, 2)), 3), _signed(rng, 1, 5)]},
         "truncation": {"degree": n}}))

    # p = 3 runs the budgeted search, whose cost does not depend on the values.
    n = 48
    num, den = rng.choice(((1, 2), (1, 3), (2, 3)))
    out.append(_estimate(
        "E08-estimate-diamond-p3", {"kind": "diamond-mult", "beta": "hardy",
                                    "delta": "geometric", "p": 3, "degree": n},
        {"p": 3, "beta": "hardy", "delta": {"preset": "geometric", "ratio": _frac(num, den)},
         "u": {"coeffs": [1, _signed(rng, 1, 2), _signed(rng, 1, 4)]},
         "seed": rng.randrange(1000), "truncation": {"degree": n}}))

    # The law check draws its sample series from the config seed, and their
    # degrees set its cost, so that seed is fixed.
    out.append(Request(
        id="E09-check-algebra", command="check-algebra",
        shape={"command": "check-algebra", "beta": "hardy",
               "delta": "inverse-factorial", "degree": 64, "seed": 1},
        config={"beta": "hardy", "delta": "inverse-factorial",
                "seed": 1, "truncation": {"degree": 64}},
        expect={"all_passed": True}))

    n = 64
    out.append(Request(
        id="E10-compose", command="compose",
        shape={"command": "compose", "f": "exact-degree-12", "phi": "exact-quadratic",
               "degree": n},
        config={"f": {"coeffs": [_frac(rng.randint(-9, 9), rng.randint(1, 9))
                                 for _ in range(13)]},
                "phi": {"coeffs": [_signed(rng, 1, 3), _signed(rng, 1, 2), _signed(rng, 1, 5)]},
                "truncation": {"degree": n}},
        expect={"definition": "compose"}))

    out.append(Request(
        id="E11-theta", command="theta",
        shape={"command": "theta", "phi": "exact-cubic", "n": 14, "power": 7},
        config={"phi": {"coeffs": [0, _signed(rng, 1, 2), _signed(rng, 1, 3),
                                   _signed(rng, 1, 4)]},
                "n": 14, "power": 7},
        expect={"definition": "theta"}))
    return out


def float_requests(seed: int) -> list[Request]:
    """The same in-process path on float weights, plus the matrix oracle."""
    rng = random.Random(seed)
    out = []

    n = 256
    out.append(_bound(
        "F01-cor24", "cor24", {"beta": "bergman", "delta": "ones", "degree": n},
        {"beta": "bergman", "theorem": "cor24", "truncation": {"degree": n}}))

    n = 256
    out.append(_bound(
        "F02-thm23", "thm23",
        {"beta": "dirichlet", "delta": "ones", "stride": 2, "degree": n},
        {"beta": "dirichlet", "u": {"coeffs": [1.0] + _float_coeffs(rng, 2, 0.5)},
         "phi": {"monomial": 2}, "theorem": "thm23", "truncation": {"degree": n}}))

    n = 2048
    out.append(_bound(
        "F03-thm21", "thm21", {"beta": "power", "delta": "ones", "degree": n},
        {"beta": {"power": round(rng.uniform(0.2, 0.6), 4)}, "phi": {"monomial": rng.choice((2, 3, 4))},
         "theorem": "thm21", "truncation": {"degree": n, "tolerance": 0.01}},
        {"definition": "thm21"}))

    n = 96
    out.append(_bound(
        "F04-thm25", "thm25",
        {"beta": "bergman", "delta": "ones", "phi": "float-quadratic", "degree": n},
        {"beta": "bergman", "u": {"monomial": rng.choice((1, 2, 3))},
         "phi": {"coeffs": [0.0] + _float_coeffs(rng, 2, 0.45)},
         "theorem": "thm25", "truncation": {"degree": n}}))

    n = 1024
    out.append(_bound(
        "F05-cor26", "cor26", {"beta": "power", "delta": "ones", "degree": n},
        {"beta": {"power": round(rng.uniform(-0.6, -0.2), 4)},
         "u": {"monomial": rng.choice((1, 2, 3))}, "phi": {"monomial": rng.choice((2, 3))},
         "theorem": "cor26", "truncation": {"degree": n}},
        {"definition": "cor26"}))

    # An increasing weight ratio leaves the power iteration a vanishing
    # spectral gap, so it always runs to its iteration cap: a fixed amount of
    # oracle work whatever the exponent.
    n, stride = 1024, 2
    out.append(_estimate(
        "F06-estimate-composition", {"kind": "composition", "beta": "power",
                                     "phi": "monomial", "stride": stride, "p": 2,
                                     "degree": n},
        {"beta": {"power": round(rng.uniform(0.3, 0.6), 4)}, "phi": {"monomial": stride},
         "truncation": {"degree": n, "tolerance": 0.01}},
        {"definition": "thm21"}))

    # With shift 1 and stride 2 every column has the ratio 2**exponent, so the
    # power iteration stops after a fixed few steps whatever the exponent.
    n, shift, stride = 1024, 1, 2
    out.append(_estimate(
        "F07-estimate-substitution", {"kind": "substitution", "beta": "power",
                                      "delta": "ones", "shift": shift, "stride": stride,
                                      "p": 2, "degree": n},
        {"beta": {"power": round(rng.uniform(0.2, 0.6), 4)},
         "u": {"monomial": shift}, "phi": {"monomial": stride},
         "truncation": {"degree": n, "tolerance": 0.01}},
        {"definition": "cor26"}))

    n = 64
    out.append(_estimate(
        "F08-estimate-composition-p3", {"kind": "composition", "beta": "bergman",
                                        "phi": "monomial", "p": 3, "degree": n},
        {"p": 3, "beta": "bergman", "phi": {"monomial": rng.choice((2, 3))},
         "seed": rng.randrange(1000), "truncation": {"degree": n}}))

    n = 96
    out.append(_estimate(
        "F09-estimate-composition-poly", {"kind": "composition", "beta": "bergman",
                                          "phi": "float-quadratic", "p": 2, "degree": n},
        {"beta": "bergman", "phi": {"coeffs": _float_coeffs(rng, 3, 0.3)},
         "truncation": {"degree": n}}))

    n = 256
    out.append(Request(
        id="F10-product", command="product",
        shape={"command": "product", "f": "float-degree-16", "g": "float-degree-16",
               "delta": "geometric", "degree": n},
        config={"delta": {"preset": "geometric", "ratio": _frac(*rng.choice(((1, 2), (2, 3))))},
                "f": {"coeffs": _float_coeffs(rng, 17, 1.0)},
                "g": {"coeffs": _float_coeffs(rng, 17, 1.0)},
                "truncation": {"degree": n}},
        expect={"definition": "product"}))

    n = 256
    out.append(Request(
        id="F11-compose", command="compose",
        shape={"command": "compose", "f": "float-degree-24", "phi": "float-quadratic",
               "degree": n},
        config={"f": {"coeffs": _float_coeffs(rng, 25, 1.0)},
                "phi": {"coeffs": _float_coeffs(rng, 3, 0.4)},
                "truncation": {"degree": n}},
        expect={"definition": "compose"}))
    return out


def requests_for(workload: str, seed: int) -> list[Request]:
    """The request list of one pass through ``workload`` for ``seed``."""
    if workload == "cli-configs":
        return cli_requests(seed)
    if workload == "exact-scans":
        reqs = exact_requests(seed)
    elif workload == "float-oracle":
        reqs = float_requests(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    random.Random(seed ^ 0x5EED).shuffle(reqs)
    return reqs
