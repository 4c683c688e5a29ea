"""Reports of seeded random ``bound`` and ``estimate`` configs (``configgen``).

Each draw must print a report or exit with a message, with no numpy warning
on the way (pytest turns ``RuntimeWarning`` into an error).  The sandwich
``lower <= oracle <= upper`` is not asserted yet: some evaluators still
report an upper below a lower, or ``inf`` on a lower side.
"""

import json
import math

import pytest

from configgen import random_configs, report_text

DRAWS = random_configs(seed=1, count=200)


@pytest.mark.parametrize("start", range(0, len(DRAWS), 50))
def test_reports_are_strict_json_with_finite_oracles(start):
    for command, theorem, config in DRAWS[start:start + 50]:
        text = report_text(command, theorem, config)  # allow_nan=False
        if text.startswith("error: ") or command != "estimate":
            continue
        report = json.loads(text)
        column = next(c for c in report["certificates"] if c["name"] == "monomial-column-lower")
        if column["value"] != "inf":
            assert math.isfinite(report["oracle"]["estimate"]), (config, report["oracle"])
