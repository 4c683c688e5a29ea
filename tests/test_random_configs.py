"""Reports of seeded random ``bound`` and ``estimate`` configs (``configgen``).

Each draw must print a report or exit with a message, with no numpy warning
on the way (pytest turns ``RuntimeWarning`` into an error).  Each report
must keep the sandwich ``lower <= oracle <= upper`` as ``configgen.defects``
reads it: every converged upper is at least the converged oracle and every
finite lower or exact certificate of its report, with a relative slack of
1e-12, and no lower or exact certificate reads ``inf``.
"""

import functools
import json
import math

import pytest

from configgen import RTOL, defects, random_configs, report_text

DRAWS = random_configs(seed=1, count=200)


@functools.lru_cache(maxsize=None)
def _report(i: int) -> str:
    return report_text(*DRAWS[i])


@pytest.mark.parametrize("start", range(0, len(DRAWS), 50))
def test_reports_are_strict_json_with_finite_oracles(start):
    for i in range(start, start + 50):
        command, _, config = DRAWS[i]
        text = _report(i)  # allow_nan=False
        if text.startswith("error: ") or command != "estimate":
            continue
        report = json.loads(text)
        column = next(c for c in report["certificates"] if c["name"] == "monomial-column-lower")
        if column["value"] != "inf":
            assert math.isfinite(report["oracle"]["estimate"]), (config, report["oracle"])


@pytest.mark.parametrize("start", range(0, len(DRAWS), 50))
def test_reports_keep_the_sandwich(start):
    for i in range(start, start + 50):
        text = _report(i)
        if not text.startswith("error: "):
            assert not defects(json.loads(text)), (i, DRAWS[i])


def _run(command: str, config: dict, theorem=None) -> tuple[dict, dict]:
    report = json.loads(report_text(command, theorem, config))
    assert not defects(report), report
    return {c["name"]: c for c in report["certificates"]}, report["oracle"]


class TestLowerCertificatesStayFinite:
    """Probes whose lower read ``inf`` beside a finite converged upper."""

    def test_estimate_column_lower_on_the_power_law_150(self):
        """Column ``l`` has the ratio ``((l+2)/(l+1))**150``; the squares of
        the weights left float range, and the lower read ``inf`` beside an
        upper of 2.018e45 and an oracle of 1.427e45, both converged."""
        certs, oracle = _run("estimate", {
            "p": 2, "beta": {"power": 150.0}, "delta": "ones",
            "truncation": {"degree": 9, "tail_window": 4}, "u": {"monomial": 1}})
        lower = certs["monomial-column-lower"]
        assert lower["value"] == 2.0 ** 150 <= oracle["estimate"] * (1 + RTOL)
        assert lower["attained_at"] == 0 and lower["converged"]

    def test_thm23_column_lower_on_the_power_law_150(self):
        """At p = 3 the cubes left float range: the lower read ``inf`` beside
        a converged upper of 1.958e71."""
        certs, _ = _run("bound", {
            "p": 3, "beta": {"power": 150.0}, "truncation": {"degree": 19, "tail_window": 5},
            "u": {"coeffs": ["2/3", 0, "1/3"]}, "phi": {"monomial": 1}}, "thm23")
        lower, upper = certs["substitution-column-lower"], certs["substitution-stride-upper"]
        assert upper["converged"] and 0.0 < lower["value"] <= upper["value"]

    def test_a_column_beyond_float_range_is_skipped(self):
        """Every column with the coefficient 1e400 has a norm beyond float
        range: those ratios are skipped, the others are 0.0, so the lower is
        a sound 0.0, unconverged.  It read ``inf``."""
        certs, _ = _run("bound", {
            "u": {"coeffs": ["1e400", 1]}, "phi": {"monomial": 2},
            "truncation": {"degree": 12}}, "thm23")
        lower = certs["substitution-column-lower"]
        assert lower["value"] == 0.0 and not lower["converged"]
        assert "float contributions that overflowed to inf skipped" in lower["notes"]
        assert certs["substitution-stride-upper"]["value"] == "inf"
