"""Tests of the benchmark's inputs, correctness gate and trace arithmetic.

    python -m pytest bench
"""

import json
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.requests_for(workload, 7)
    again = workloads.requests_for(workload, 7)
    assert first == again
    assert json.dumps([r.config for r in first]) == json.dumps([r.config for r in again])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_values_not_shapes(workload):
    one = sorted(workloads.requests_for(workload, 1), key=lambda r: r.id)
    two = sorted(workloads.requests_for(workload, 2), key=lambda r: r.id)
    assert [r.shape for r in one] == [r.shape for r in two]
    in_process = [(a, b) for a, b in zip(one, two) if a.config is not None]
    for a, b in in_process:
        if "degree" in a.shape:
            assert a.config["truncation"]["degree"] == a.shape["degree"]
            assert b.config["truncation"]["degree"] == b.shape["degree"]
    if in_process:
        assert any(a.config != b.config for a, b in in_process)


def test_every_shipped_config_has_expected_values():
    names = {name for name, _ in workloads.CLI_CONFIGS}
    assert names == set(checks.SHIPPED_EXPECTATIONS)
    assert names == {p.stem for p in (ROOT / "configs").glob("*.json")}


def _algebra_constant_report(value):
    return {"certificates": [{"name": "multiplier-algebra-upper", "kind": "upper",
                              "value": value, "converged": True}],
            "oracle": None, "result": None}


def test_checker_flags_a_perturbed_expected_value(monkeypatch):
    request = next(r for r in workloads.cli_requests(0) if r.id == "bound-algebra-constant")
    assert checks.check_report(request, _algebra_constant_report(1.5)) == []
    monkeypatch.setitem(checks.SHIPPED_EXPECTATIONS, "bound-algebra-constant",
                        {"certs": {"multiplier-algebra-upper": 1.5 * (1 + 1e-9)}})
    assert checks.check_report(request, _algebra_constant_report(1.5))


def test_checker_flags_a_perturbed_report_value():
    request = next(r for r in workloads.cli_requests(0) if r.id == "bound-algebra-constant")
    assert checks.check_report(request, _algebra_constant_report(1.5 + 1e-9))


def test_checker_flags_a_broken_sandwich():
    report = {"certificates": [
        {"name": "lo", "kind": "lower", "value": 1.0, "converged": True},
        {"name": "up", "kind": "upper", "value": 0.5, "converged": True},
    ], "oracle": {"estimate": 1.2, "iterations": 3, "converged": True}}
    problems = checks.sandwich_failures(report)
    assert any("lo=" in p and "up=" in p for p in problems)
    assert any("oracle" in p for p in problems)
    report["certificates"][1]["converged"] = False
    assert checks.sandwich_failures(report) == []


def test_definitions_against_hand_values():
    config = {"beta": "dirichlet", "phi": {"monomial": 4}, "truncation": {"degree": 2048}}
    assert checks.thm21_supremum(config) == pytest.approx((8193 / 2049) ** 0.5, rel=1e-15)
    config = {"beta": "dirichlet", "u": {"monomial": 1}, "phi": {"monomial": 2},
              "truncation": {"degree": 64}}
    assert checks.cor26_supremum(config) == pytest.approx(2 ** 0.5, rel=1e-15)
    config = {"f": {"coeffs": [0, 0, 0, 1]}, "phi": {"coeffs": [1, 1]},
              "truncation": {"degree": 5}}
    assert checks.compose_reference(config) == [1, 3, 3, 1, 0, 0]
    config = {"delta": "factorial", "f": {"coeffs": [0, 1]}, "g": {"coeffs": [0, 1]},
              "truncation": {"degree": 3}}
    assert checks.product_reference(config) == [0, 0, 2, 0]


def test_definition_check_flags_a_wrong_certificate():
    config = {"beta": "hardy", "phi": {"monomial": 2}, "truncation": {"degree": 16}}
    cert = {"name": "composition-norm-exact", "kind": "exact", "value": 1.0, "converged": True}
    assert checks.definition_failures({"certificates": [cert]}, config, "thm21") == []
    cert["value"] = 1.001
    assert checks.definition_failures({"certificates": [cert]}, config, "thm21")


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   encodings
import time:       500 |        500 |       numpy.linalg
import time:      1000 |       1500 |     numpy
import time:        50 |         50 |         numpy.testing
import time:       200 |        250 |       scipy.sparse._base
import time:       300 |        550 |     scipy.sparse
import time:        10 |       2060 |   fpsop
import time:         5 |       2065 | fpsop.cli
"""


def test_pooled_tail_leaves_ten_samples_beyond_it():
    # Five passes of 15 requests whose samples are 0, 1, ..., 74 ms.
    passes = [{"latency_s": {f"r{i}": (15 * p + i) / 1000 for i in range(15)}}
              for p in range(5)]
    raw = run.raw_latency(passes)
    assert raw["samples"] == 75
    assert raw["tail_percentile"] == 86
    assert raw["tail_ms"] == pytest.approx(0.86 * 74)
    assert sum(ms > raw["tail_ms"] for ms in range(75)) >= run.TAIL_BEYOND


def test_scaled_latency_is_the_median_ratio_to_the_reference():
    # The host runs at half speed in the second pass: both times double.
    passes = [{"latency_s": {"a": 0.2, "b": 0.4}, "reference_s": {"a": 0.1, "b": 0.1}},
              {"latency_s": {"a": 0.4, "b": 0.8}, "reference_s": {"a": 0.2, "b": 0.2}},
              {"latency_s": {"a": 0.3, "b": 0.5}, "reference_s": {"a": 0.1, "b": 0.1}}]
    assert run.scaled_latencies_s(passes, 0.01) == pytest.approx([0.02, 0.04])


def test_import_times_count_each_module_once():
    assert tracing.import_times_ms(IMPORTTIME) == {
        "fpsop": 2.065, "numpy": 1.5, "scipy": 0.55}


def test_self_time_subtracts_direct_children():
    ms = 1_000_000
    spans = [
        [0, None, "r", "cli.run", 0, 10 * ms],
        [1, 0, "r", "criteria.thm22", 1 * ms, 9 * ms],
        [2, 1, "r", "combinatorics.PowerTable", 2 * ms, 5 * ms],
        [3, None, "r", "cli.parse_config", 10 * ms, 12 * ms],
    ]
    out = tracing.layer_totals(spans, {"r": {"kernel_calls": 4, "kernel_distinct": 1}},
                               {"r": 0.016})
    assert out["cli.self_ms"] == 2
    assert out["criteria.thm22_ms"] == 5
    assert out["combinatorics.power_table_ms"] == 3
    assert out["cli.parse_config_ms"] == 2
    assert out["criteria.calls"] == 1
    assert out["weights.kernel_distinct_frac"] == 0.25
    assert out["trace.coverage_frac"] == pytest.approx(0.75)


def test_install_records_spans_and_restores_originals():
    sys.path.insert(0, str(ROOT / "src"))
    from fpsop import cli, criteria, weights

    originals = (cli.run, criteria.PowerTable, weights.DeltaSequence.kernel,
                 cli._CRITERION_EVALUATORS["thm22"])
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        config = cli.parse_config('{"phi": {"coeffs": [0, "1/2", "1/3"]}, '
                                  '"theorem": "thm22", "truncation": {"degree": 16}}')
        with tracer.request("r"):
            cli.run("bound", config)
    finally:
        restore()
    names = [span[3] for span in tracer.spans]
    assert names == ["cli.parse_config", "cli.run", "criteria.thm22",
                     "combinatorics.PowerTable"]
    assert tracer.request_counts["r"]["value_calls"] > 0
    assert tracer.request_counts["r"]["power_table_entries"] > 0
    assert (cli.run, criteria.PowerTable, weights.DeltaSequence.kernel,
            cli._CRITERION_EVALUATORS["thm22"]) == originals
    assert "value" not in vars(weights.WeightSequence)
