"""Golden ``--quiet`` reports: the shipped configs and a ``bound`` grid.

``golden_reports.json`` holds the report text each case printed when it was
last written on purpose.  The test compares today's text byte for byte, so a
refactor that changes any printed digit, note or flag fails here.  After a
deliberate report change, rewrite the data file with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.
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

GRID_P = (1, "1", "3/2", 2, 2.5, 3)
GRID_BETA = ("hardy", "bergman", "dirichlet")
GRID_DELTA = ("ones", "inverse-factorial")
GRID_DEGREE = 24

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


def grid_cases():
    """``(case id, argv)`` for the p x beta x delta x evaluator ``bound`` grid."""
    for p in GRID_P:
        for beta in GRID_BETA:
            for delta in GRID_DELTA:
                for code, operator in GRID_OPERATORS.items():
                    doc = {"p": p, "beta": beta, "delta": delta, **operator,
                           "truncation": {"degree": GRID_DEGREE}}
                    case = f"grid/{code}/p={json.dumps(p)}/{beta}/{delta}"
                    yield case, ["bound", "--theorem", code, "--config", json.dumps(doc)]


def quiet_report(argv):
    """The exit code and stdout text of ``fpsop <argv> --quiet``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--quiet"])
    return code, out.getvalue()


def _load():
    with open(DATA_PATH, encoding="utf-8") as fh:
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


def write_golden():
    golden = {}
    for case, argv in list(shipped_cases()) + list(grid_cases()):
        code, text = quiet_report(argv)
        if code != 0:
            raise SystemExit(f"{case}: exit {code}")
        golden[case] = text
    with open(DATA_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} reports to {DATA_PATH}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
