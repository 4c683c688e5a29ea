"""Golden ``--quiet`` reports: the shipped configs and two ``bound`` grids.

``golden_reports.json`` holds the report text of the shipped configs and of
the preset-weight grid, ``golden_weight_reports.json`` that of the
weight-kind grid (huge exact weights: explicit and geometric lists,
factorials, power laws), each as printed when it was last written on
purpose.  The test compares today's text byte for byte, so a refactor that
changes any printed digit, note or flag fails here.  After a deliberate
report change, rewrite both data files with

    PYTHONPATH=src python tests/test_golden.py --rewrite

and review its diff.  Without ``--rewrite`` the script writes nothing and
only says how to rewrite, so a stray run cannot replace the pinned reports.
"""

import contextlib
import glob
import io
import json
import os
import sys

from fpsop.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DATA_PATH = os.path.join(REPO_ROOT, "tests", "golden_reports.json")

WEIGHT_DATA_PATH = os.path.join(REPO_ROOT, "tests", "golden_weight_reports.json")

GRID_P = (1, "1", "3/2", 2, 2.5, 3)
GRID_BETA = ("hardy", "bergman", "dirichlet")
GRID_DELTA = ("ones", "inverse-factorial")
GRID_DEGREE = 24

WEIGHT_GRID_P = (1, "3/2", 2, 3)
# The explicit list reaches cor26's top output degree shift + stride*N.
WEIGHT_GRID_BETA = {
    "geometric-list": {"values": ["1"] + [f"1/{2 ** n}" for n in range(1, 2 * GRID_DEGREE + 2)]},
    "power-0.3": {"power": -0.3},
}
WEIGHT_GRID_DELTA = {
    "factorial": "factorial",
    "geometric-1/2": {"preset": "geometric", "ratio": "1/2"},
}

# One operator per evaluator code, shaped so the code applies.
GRID_OPERATORS = {
    "thm21": {"phi": {"monomial": 2}},
    "thm22": {"phi": {"coeffs": ["1/4", "1/4"]}},
    "thm23": {"u": {"coeffs": [1, "1/2"]}, "phi": {"monomial": 2}},
    "cor24": {},
    "thm25": {"u": {"monomial": 1}, "phi": {"coeffs": [0, "1/2", "1/2"]}},
    "cor26": {"u": {"monomial": 1}, "phi": {"monomial": 2}},
}


def _config_command(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("theorem"):
        return "bound"
    stem = os.path.basename(path)
    for command in ("check-algebra", "estimate", "norm", "product", "compose", "theta"):
        if stem.startswith(command):
            return command
    return "bound"


def shipped_cases():
    """``(case id, argv)`` for every shipped config, run with its command."""
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "configs", "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        yield f"configs/{name}", [_config_command(path), "--config", path]


def _bound_grid(prefix, ps, betas, deltas):
    for p in ps:
        for beta_name, beta in betas.items():
            for delta_name, delta in deltas.items():
                for code, operator in GRID_OPERATORS.items():
                    doc = {"p": p, "beta": beta, "delta": delta, **operator,
                           "truncation": {"degree": GRID_DEGREE}}
                    case = f"{prefix}/{code}/p={json.dumps(p)}/{beta_name}/{delta_name}"
                    yield case, ["bound", "--theorem", code, "--config", json.dumps(doc)]


def grid_cases():
    """``(case id, argv)`` for the p x beta x delta x evaluator ``bound`` grid."""
    yield from _bound_grid("grid", GRID_P, {b: b for b in GRID_BETA},
                           {d: d for d in GRID_DELTA})


def weight_grid_cases():
    """``(case id, argv)`` for the p x weight-kind x evaluator ``bound`` grid."""
    yield from _bound_grid("weights", WEIGHT_GRID_P, WEIGHT_GRID_BETA, WEIGHT_GRID_DELTA)


def quiet_report(argv):
    """The exit code and stdout text of ``fpsop <argv> --quiet``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--quiet"])
    return code, out.getvalue()


def _load(path=DATA_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _mismatches(cases, golden):
    failures = []
    for case, argv in cases:
        code, text = quiet_report(argv)
        if code != 0:
            failures.append(f"{case}: exit {code}")
        elif text != golden.get(case):
            failures.append(f"{case}: report differs")
    return failures


def test_golden_covers_every_case():
    expected = {case for case, _ in shipped_cases()} | {case for case, _ in grid_cases()}
    assert set(_load()) == expected


def test_shipped_config_reports_match_golden():
    failures = _mismatches(shipped_cases(), _load())
    assert not failures, failures


def test_bound_grid_reports_match_golden():
    failures = _mismatches(grid_cases(), _load())
    assert not failures, failures


def test_weight_golden_covers_every_case():
    assert set(_load(WEIGHT_DATA_PATH)) == {case for case, _ in weight_grid_cases()}


def test_weight_grid_reports_match_golden():
    failures = _mismatches(weight_grid_cases(), _load(WEIGHT_DATA_PATH))
    assert not failures, failures


def write_golden(path, cases):
    golden = {}
    for case, argv in cases:
        code, text = quiet_report(argv)
        if code != 0:
            raise SystemExit(f"{case}: exit {code}")
        golden[case] = text
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} reports to {path}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --rewrite\n"
                         "rewrites both golden data files from today's reports")
    write_golden(DATA_PATH, list(shipped_cases()) + list(grid_cases()))
    write_golden(WEIGHT_DATA_PATH, weight_grid_cases())
