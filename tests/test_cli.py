import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsop.cli import (COMMANDS, Config, ConfigError, _parse_echo, _parse_once, main,
                       parse_config, run)
from fpsop.series import PolynomialSymbol, TruncatedSeries

from oracles import parse_once_reference

MINIMAL = '{"p": 2, "beta": {"preset": "dirichlet"}, "phi": {"monomial": 2}}'

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFLICTING_STRIDE = ('{"beta": "dirichlet", "u": {"monomial": 1},'
                      ' "phi": {"monomial": 2}, "stride": 3,'
                      ' "truncation": {"degree": 128}}')


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.normalized["delta"] == {"preset": "ones"}
        assert cfg.normalized["u"] is None
        assert cfg.u is None
        assert cfg.space.truncation_degree == 512
        assert cfg.normalized["seed"] == 0

    def test_p_below_one_rejected(self):
        with pytest.raises((ConfigError, Exception), match=">= 1"):
            parse_config('{"p": 0.5, "beta": {"preset": "hardy"}}')

    def test_delta_anchor_rejected(self):
        with pytest.raises(ConfigError, match="delta\\(0\\)"):
            parse_config('{"beta": {"preset": "hardy"}, "delta": {"values": [2, 1]}}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config('{"beta": {"preset": "hardy"}, "spin": 3}')

    def test_malformed_json_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('{\n "p": 2,,\n}')

    def test_file_path_source(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(MINIMAL)
        cfg = parse_config(str(path))
        assert cfg.normalized["phi"] == {"monomial": 2}

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("no/such/config.json")

    def test_fraction_strings(self):
        cfg = parse_config(
            '{"p": "3/2", "beta": {"values": ["1", "1/2", "1/4"]},'
            ' "truncation": {"degree": 2, "tail_window": 1}}')
        assert cfg.space.p == Fraction(3, 2)
        assert cfg.beta.value(2) == Fraction(1, 4)

    def test_round_trip_identity(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(cfg.serialize())
        assert again == cfg
        assert again.serialize() == cfg.serialize()

    def test_round_trip_rich_config(self):
        text = json.dumps({
            "p": "5/2",
            "beta": {"values": ["1", "1/3", "1/9"]},
            "delta": {"preset": "geometric", "ratio": "1/2"},
            "u": {"coeffs": [0, "2/3"]},
            "phi": {"monomial": 2},
            "truncation": {"degree": 2, "tail_window": 1, "tolerance": 1e-6},
            "seed": 11,
        })
        cfg = parse_config(text)
        assert parse_config(cfg.serialize()) == cfg

    def test_stride_and_shift_are_monomial_shorthand(self):
        cfg = parse_config('{"stride": 2, "shift": 1}')
        assert cfg.phi == PolynomialSymbol.monomial(2)
        assert cfg.u == TruncatedSeries.monomial(1)
        assert (cfg.normalized["stride"], cfg.normalized["phi"]) == (2, None)
        assert (cfg.normalized["shift"], cfg.normalized["u"]) == (1, None)
        for key in ("stride", "shift"):
            with pytest.raises(ConfigError, match=f"{key} must be an integer >= 0, got -1"):
                parse_config('{"%s": -1}' % key)

    def test_theorem_code_validated(self):
        with pytest.raises(ConfigError, match="thm99"):
            parse_config('{"beta": {"preset": "hardy"}, "theorem": "thm99"}')


class TestRun:
    def test_norm_command(self):
        cfg = parse_config('{"beta": {"preset": "dirichlet"}, "f": {"coeffs": [1, 2]}}')
        report = run("norm", cfg)
        assert report["result"]["value"] == pytest.approx(3.0)

    def test_product_command(self):
        cfg = parse_config(
            '{"beta": {"preset": "hardy"}, "delta": {"preset": "factorial"},'
            ' "f": {"coeffs": [0, 1]}, "g": {"coeffs": [0, 1]},'
            ' "truncation": {"degree": 4, "tail_window": 1}}')
        report = run("product", cfg)
        assert report["result"]["coeffs"] == [0, 0, 2, 0, 0]

    def test_compose_command(self):
        cfg = parse_config(
            '{"beta": {"preset": "hardy"}, "f": {"coeffs": [0, 0, 0, 1]},'
            ' "phi": {"coeffs": [1, 1]}, "truncation": {"degree": 3, "tail_window": 1}}')
        report = run("compose", cfg)
        assert report["result"]["coeffs"] == [1, 3, 3, 1]

    def test_theta_command(self):
        cfg = parse_config(
            '{"beta": {"preset": "hardy"}, "phi": {"coeffs": [0, 1, 1]},'
            ' "n": 3, "power": 2}')
        report = run("theta", cfg)
        assert report["result"]["value"] == 2

    def test_bound_needs_theorem(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="theorem"):
            run("bound", cfg)

    def test_bound_thm21(self):
        cfg = parse_config(
            '{"beta": {"preset": "dirichlet"}, "phi": {"monomial": 4},'
            ' "truncation": {"degree": 2048, "tolerance": 1e-4}}')
        report = run("bound", cfg, theorem="thm21")
        cert = report["certificates"][0]
        assert cert["name"] == "composition-norm-exact"
        assert cert["kind"] == "exact"
        assert cert["value"] == pytest.approx(2.0, abs=1e-3)
        assert cert["attained_at"] is None
        assert cert["converged"] is True

    def test_bound_divergent_reports_inf(self):
        cfg = parse_config(
            '{"beta": {"preset": "hardy"}, "delta": {"preset": "factorial"},'
            ' "u": {"monomial": 1}, "phi": {"monomial": 1}}')
        report = run("bound", cfg, theorem="cor26")
        named = {c["name"]: c for c in report["certificates"]}
        assert named["progression-ratio-upper"]["value"] == "inf"
        # The lower keeps its largest ratio, N + 1, and is flagged divergent.
        assert named["progression-ratio-lower"]["value"] == 513.0
        for name in ("progression-ratio-upper", "progression-ratio-lower"):
            assert named[name]["converged"] is False
            assert ("growth does not decay across dyadic windows; divergent scan"
                    in named[name]["notes"])

    def test_estimate_sandwich(self):
        cfg = parse_config(
            '{"beta": {"preset": "dirichlet"}, "u": {"monomial": 1},'
            ' "phi": {"monomial": 2}, "truncation": {"degree": 256}}')
        report = run("estimate", cfg)
        oracle = report["oracle"]["estimate"]
        assert oracle == pytest.approx(math.sqrt(2), abs=1e-6)
        named = {c["name"]: c for c in report["certificates"]}
        assert named["progression-ratio-lower"]["value"] - 1e-9 <= oracle
        assert oracle <= named["progression-ratio-upper"]["value"] + 1e-9

    def test_progression_upper_scans_the_whole_image(self):
        # The image of z**N lands at degree shift + stride*N = 50, past the
        # truncation degree 20; the upper must scan that far, not stop at 20.
        cfg = parse_config(
            '{"beta": "hardy", "u": {"monomial": 30}, "phi": {"monomial": 1},'
            ' "truncation": {"degree": 20}}')
        report = run("estimate", cfg)
        named = {c["name"]: c for c in report["certificates"]}
        upper = named["progression-ratio-upper"]["value"]
        assert upper >= report["oracle"]["estimate"]
        assert upper == named["progression-ratio-lower"]["value"]

    def test_check_algebra_passes(self):
        cfg = parse_config(
            '{"beta": {"preset": "hardy"}, "delta": {"preset": "inverse-factorial"},'
            ' "truncation": {"degree": 64}}')
        report = run("check-algebra", cfg)
        assert report["certificates"][0]["value"] == pytest.approx(1.5)
        assert report["result"]["all_passed"] is True
        laws = report["result"]["laws"]
        assert set(laws) == {"commutative", "associative", "bilinear", "unital",
                             "submultiplicative"}
        assert all(v["failed"] == 0 for v in laws.values())

    def test_unknown_command(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            run("transmogrify", cfg)


class TestMain:
    def test_exit_zero_and_json_output(self, capsys):
        code, out = run_main(capsys, "bound", "--theorem", "thm21",
                             "--config", MINIMAL)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "bound"
        assert report["elapsed_ms"] is None

    def test_divergence_still_exits_zero(self, capsys):
        cfg = ('{"beta": {"preset": "hardy"}, "phi": {"monomial": 2},'
               ' "theorem": "thm22"}')
        code, out = run_main(capsys, "bound", "--config", cfg)
        assert code == 0
        report = json.loads(out)
        named = {c["name"]: c for c in report["certificates"]}
        assert named["composition-power-sum-upper"]["value"] == "inf"

    def test_config_error_exit_two(self, capsys):
        code = main(["bound", "--theorem", "thm21", "--config",
                     '{"p": 0.5, "beta": {"preset": "hardy"}}'])
        assert code == 2

    def test_quiet_drops_config_echo(self, capsys):
        code, out = run_main(capsys, "bound", "--theorem", "thm21",
                             "--config", MINIMAL, "--quiet")
        assert code == 0
        assert "config" not in json.loads(out)

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_main(capsys, "norm", "--config",
                             '{"beta": {"preset": "hardy"}, "f": {"coeffs": [3]}}',
                             "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["result"]["value"] == 3.0

    def test_byte_stable_reports(self, capsys):
        args = ("estimate", "--config",
                '{"beta": {"preset": "dirichlet"}, "u": {"monomial": 1},'
                ' "phi": {"monomial": 2}, "truncation": {"degree": 64}}')
        _, first = run_main(capsys, *args)
        _, second = run_main(capsys, *args)
        assert first == second

    def test_seed_flag_echoes(self, capsys):
        code, out = run_main(capsys, "check-algebra", "--config",
                             '{"beta": {"preset": "hardy"},'
                             ' "delta": {"preset": "inverse-factorial"},'
                             ' "truncation": {"degree": 32}}',
                             "--seed", "5")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 5

    @pytest.mark.parametrize("command, config", [
        ("check-algebra", '{"beta": "hardy", "delta": "inverse-factorial",'
                          ' "truncation": {"degree": 32}}'),
        # A coupled p = 3 estimate: the seed drives the oracle's random search.
        ("estimate", '{"p": 3, "beta": "hardy", "u": {"coeffs": [1, 0, 1]},'
                     ' "truncation": {"degree": 12}}'),
    ])
    def test_seed_flag_reaches_the_computation(self, capsys, command, config):
        _, flagged = run_main(capsys, command, "--config", config, "--seed", "5")
        seeded = config[:-1] + ', "seed": 5}'
        assert run_main(capsys, command, "--config", seeded) == (0, flagged)
        if command == "estimate":
            _, unseeded = run_main(capsys, command, "--config", config)
            assert json.loads(unseeded)["oracle"] != json.loads(flagged)["oracle"]

    def test_timings_flag_fills_elapsed(self, capsys):
        code, out = run_main(capsys, "theta", "--config",
                             '{"beta": {"preset": "hardy"},'
                             ' "phi": {"coeffs": [0, 1, 1]}, "n": 3, "power": 2}',
                             "--timings")
        assert code == 0
        assert json.loads(out)["elapsed_ms"] > 0

    @pytest.mark.parametrize("key, literal, shown", [
        ("tolerance", "Infinity", "inf"),
        ("tolerance", "1e400", "inf"),  # json reads it as inf
        ("tolerance", "NaN", "nan"),
    ])
    def test_non_finite_truncation_scalar_exits_two(self, capsys, key, literal, shown):
        config = '{"phi": {"monomial": 2}, "truncation": {"degree": 16, "%s": %s}}' % (
            key, literal)
        assert main(["bound", "--theorem", "thm21", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"fpsop: error: truncation.{key} must be a finite positive number, got {shown}\n")

    def test_truncation_echo_holds_degree_window_and_tolerance(self, capsys):
        code, out = run_main(capsys, "bound", "--theorem", "thm21", "--config",
                             '{"phi": {"monomial": 2}, "truncation": {"degree": 16}}')
        assert code == 0
        assert json.loads(out)["config"]["truncation"] == {
            "degree": 16, "tail_window": 10, "tolerance": 1e-7}

    def test_both_dropped_truncation_keys_are_named(self, capsys):
        config = ('{"phi": {"monomial": 2},'
                  ' "truncation": {"degree": 16, "power_limit": 16, "cap": 1e12}}')
        assert main(["bound", "--theorem", "thm21", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fpsop: error: unknown truncation keys: ['cap', 'power_limit']\n")

    @pytest.mark.parametrize("literal", ["Infinity", "1e400"])
    def test_cap_is_not_a_truncation_key(self, capsys, literal):
        """The divergence cap is a constant of the scans, not a setting."""
        config = '{"phi": {"monomial": 2}, "truncation": {"degree": 16, "cap": %s}}' % literal
        assert main(["bound", "--theorem", "thm21", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fpsop: error: unknown truncation keys: ['cap']\n"

    def test_power_sum_upper_is_never_below_its_lower(self, capsys):
        """A ``power_limit`` below the degree made this upper of an unbounded
        operator finite (61.04) and below its lower (9236.8). The inner power
        sums run to the degree, so the key is rejected and the upper is inf."""
        config = '{"phi": {"coeffs": [0, "1/2", 2]}, "truncation": {"degree": 20%s}}'
        assert main(["bound", "--theorem", "thm22", "--quiet", "--config",
                     config % ', "power_limit": 5']) == 2
        assert capsys.readouterr().err == (
            "fpsop: error: unknown truncation keys: ['power_limit']\n")
        code, out = run_main(capsys, "bound", "--theorem", "thm22", "--quiet", "--config",
                             config % "")
        assert code == 0
        named = {c["name"]: c for c in json.loads(out)["certificates"]}
        assert named["composition-power-sum-upper"]["value"] == "inf"
        assert named["composition-monomial-lower"]["value"] > 9000


class TestConflictingSymbolKeys:
    def test_stride_disagreeing_with_phi_exits_two(self, capsys):
        for argv in (["estimate"], ["bound", "--theorem", "cor26"]):
            code = main(argv + ["--config", CONFLICTING_STRIDE])
            assert code == 2
            assert "stride=3 conflicts with phi" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["estimate"], ["bound", "--theorem", "thm23"]])
    @pytest.mark.parametrize("short, long", [
        ('"shift": 1, "stride": 2', '"u": {"monomial": 1}, "phi": {"monomial": 2}'),
        ('"stride": 2', '"phi": {"monomial": 2}'),
    ])
    def test_shorthand_reads_as_monomials(self, capsys, argv, short, long):
        """``"stride": m`` is ``phi = z**m`` and ``"shift": m`` is ``u = z**m``."""
        reports = [run_main(capsys, *argv, "--quiet", "--config",
                            '{"beta": "dirichlet", %s, "truncation": {"degree": 32}}' % keys)
                   for keys in (short, long)]
        assert reports[0][0] == 0
        assert reports[0] == reports[1]

    def test_agreeing_pair_accepted(self, capsys):
        cfg = CONFLICTING_STRIDE.replace('"stride": 3', '"stride": 2')
        code, out = run_main(capsys, "bound", "--theorem", "cor26",
                             "--config", cfg, "--quiet")
        assert code == 0
        named = {c["name"]: c for c in json.loads(out)["certificates"]}
        assert named["progression-ratio-lower"]["value"] <= \
            named["progression-ratio-upper"]["value"]


class TestBeyondFloatRange:
    """An exact coefficient too large for a float makes a norm ``inf``, not a crash."""

    def test_norm_reports_inf(self, capsys):
        code, out = run_main(capsys, "norm", "--quiet", "--config",
                             '{"f": {"coeffs": ["1e400", 1]}}')
        assert code == 0
        assert json.loads(out)["result"]["value"] == "inf"

    def test_thm23_with_such_a_multiplier_reports_inf(self, capsys):
        code, out = run_main(capsys, "bound", "--theorem", "thm23", "--quiet", "--config",
                             '{"u": {"coeffs": ["1e400", 1]}, "phi": {"monomial": 2},'
                             ' "truncation": {"degree": 12}}')
        assert code == 0
        named = {c["name"]: c for c in json.loads(out)["certificates"]}
        assert named["substitution-stride-upper"]["value"] == "inf"
        assert named["substitution-stride-upper"]["converged"] is False

    def test_norm_of_a_sum_beyond_float_range_is_inf(self, capsys):
        code, out = run_main(capsys, "norm", "--quiet", "--config",
                             '{"p": 1, "f": {"coeffs": [1e308, 1e308]}}')
        assert code == 0
        assert json.loads(out)["result"]["value"] == "inf"

    def test_power_law_beta_beyond_float_range_exits_two(self, capsys):
        code = main(["bound", "--theorem", "cor24", "--quiet", "--config",
                     '{"beta": {"power": 300}, "truncation": {"degree": 12}}'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "fpsop: error: beta(10) = 11**300 is beyond float range\n"

    def test_thm25_exact_kernel_beyond_float_range_gives_inf_upper(self, capsys):
        code, out = run_main(capsys, "bound", "--theorem", "thm25", "--quiet", "--config",
                             '{"beta": {"values": [1, 1, "1e200", "1e200", "1e200"]},'
                             ' "u": {"monomial": 2}, "phi": {"coeffs": [0, 0.5]},'
                             ' "truncation": {"degree": 4, "tail_window": 1}}')
        assert code == 0
        named = {c["name"]: c for c in json.loads(out)["certificates"]}
        assert named["substitution-shift-upper"]["value"] == "inf"
        assert named["substitution-shift-upper"]["converged"] is False

    @pytest.mark.parametrize("config", [
        # kern**p underflows to zero on the last nonzero row
        '{"p": 2, "beta": {"power": -150.0}, "delta": "factorial",'
        ' "truncation": {"degree": 13, "tail_window": 1},'
        ' "u": {"monomial": 3}, "phi": {"monomial": 3}}',
        # kern**p underflows to zero while agg**(p/q) overflows (nan)
        '{"p": 2.5, "beta": {"power": -150.0}, "delta": "ones",'
        ' "truncation": {"degree": 19, "tail_window": 3},'
        ' "u": {"monomial": 3}, "phi": {"monomial": 2}}',
        # the q-sum of a row overflows while its row is ~1e-17
        '{"p": 2, "beta": {"power": -150.0}, "delta": "inverse-factorial",'
        ' "truncation": {"degree": 12, "tail_window": 1},'
        ' "u": {"monomial": 1}, "phi": {"coeffs": [0.0, 0.625, 0.25]}}',
    ], ids=["kernel-power-underflow", "zero-times-inf", "q-sum-overflow"])
    def test_thm25_rows_whose_factors_leave_float_range(self, capsys, config):
        code, out = run_main(capsys, "bound", "--theorem", "thm25", "--quiet", "--config",
                             config)
        assert code == 0
        named = {c["name"]: c["value"] for c in json.loads(out)["certificates"]}
        assert 0 < named["substitution-shift-lower"] <= named["substitution-shift-upper"] < 1

    @pytest.mark.parametrize("command, extra", [
        ("check-algebra", ""),
        ("norm", ', "f": {"coeffs": [1, 2]}'),
    ])
    def test_exact_p_beyond_float_range_exits_two(self, capsys, command, extra):
        code = main([command, "--quiet", "--config", '{"p": "1e400"%s}' % extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "fpsop: error: p = inf is not supported; norms require finite p >= 1\n")

    def test_mixed_list_with_an_exact_entry_beyond_float_range_exits_two(self, capsys):
        code = main(["norm", "--quiet", "--config", '{"f": {"coeffs": ["1e400", 1.5]}}'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "fpsop: error: coefficients must be finite\n"

    def test_float_theta_beyond_float_range_exits_two(self, capsys):
        code = main(["theta", "--quiet", "--config",
                     '{"phi": {"coeffs": [0.5, 1e200]}, "n": 3, "power": 5}'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "fpsop: error: coefficients must be finite\n"

    @pytest.mark.parametrize("f, phi", [
        ('[1.0, 2.0]', '[0, "1e400"]'),  # an exact symbol coefficient beyond float range
        ('[1, "1e400"]', '[0, 0.5]'),    # an exact series coefficient beyond float range
    ])
    def test_mixed_compose_beyond_float_range_exits_two(self, capsys, f, phi):
        code = main(["compose", "--quiet", "--config",
                     '{"f": {"coeffs": %s}, "phi": {"coeffs": %s}, "truncation": {"degree": 12}}'
                     % (f, phi)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "fpsop: error: coefficients must be finite\n"

    def test_estimate_with_scaled_entries_near_float_range(self, capsys):
        # beta entries of 1e-100 put 1e+100 into the scaled matrix, so its
        # power iteration squares them past float range unless it rescales
        code, out = run_main(capsys, "estimate", "--quiet", "--config",
                             '{"beta": {"values": [1, 1, 1, 1e-100, 1e-100, 1, 1e-100,'
                             ' 1, 1, 1, 1, 1, 1, 1, 1]}, "u": {"coeffs": [1, 1]},'
                             ' "truncation": {"degree": 6, "tail_window": 1}}')
        assert code == 0
        report = json.loads(out)
        estimate = report["oracle"]["estimate"]
        named = {c["name"]: c["value"] for c in report["certificates"]}
        assert math.isfinite(estimate)
        assert named["monomial-column-lower"] <= estimate <= named["multiplier-algebra-upper"]

    def test_estimate_with_a_coupled_norm_past_float_range(self, capsys):
        """Every column of the constant symbol's matrix sits in row 0, so the
        block is coupled; its norm passes float range though its entries do
        not, and the p = 3 search reports the largest float."""
        code, out = run_main(capsys, "estimate", "--quiet", "--config",
                             '{"p": 3, "beta": {"power": -136.5}, "phi": {"monomial": 0},'
                             ' "truncation": {"degree": 180}}')
        assert code == 0
        assert json.loads(out)["oracle"]["estimate"] == sys.float_info.max


    @pytest.mark.parametrize("f, g", [
        ("[1e308, 1e308]", "[1.0, 1.0]"),      # fsum's intermediate overflow
        ("[1e308, -1e308]", "[1e308, 1e308]"),  # inf - inf
    ])
    def test_float_product_beyond_float_range_exits_two(self, capsys, f, g):
        code = main(["product", "--quiet", "--config",
                     '{"f": {"coeffs": %s}, "g": {"coeffs": %s}, "delta": "factorial"}'
                     % (f, g)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "fpsop: error: coefficients must be finite\n"

    def test_estimate_with_a_lone_column_whose_square_overflows(self, capsys):
        code, out = run_main(capsys, "estimate", "--quiet", "--config",
                             '{"u": {"coeffs": [1e200]},'
                             ' "truncation": {"degree": 3, "tail_window": 1}}')
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["estimate"] == pytest.approx(1e200, rel=1e-12)
        assert oracle["converged"] is True


class TestSizeGuard:
    """A power table or matrix above 10,000,000 entries exits 3 before it is built."""

    HALVES = '{"phi": {"coeffs": ["1/2", "1/2"]}, "truncation": {"degree": 3200}}'

    def assert_guarded(self, capsys, *argv, label):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert f"resource guard: {label} needs ~" in captured.err
        assert "the guard allows 10000000" in captured.err

    def test_thm22_power_table(self, capsys):
        self.assert_guarded(capsys, "bound", "--theorem", "thm22", "--config", self.HALVES,
                            label="power table")

    def test_estimate_matrix(self, capsys):
        self.assert_guarded(capsys, "estimate", "--config", self.HALVES,
                            label="dense composition build")

    def test_diamond_mult_matrix(self, capsys):
        self.assert_guarded(capsys, "estimate", "--config",
                            '{"u": {"coeffs": [1, 1]}, "truncation": {"degree": 5000000}}',
                            label="diamond-mult build")

    def test_substitution_matrix(self, capsys):
        self.assert_guarded(capsys, "estimate", "--config",
                            '{"u": {"monomial": 1}, "phi": {"monomial": 2},'
                            ' "truncation": {"degree": 10000000}}',
                            label="substitution build")

    def test_dense_substitution_matrix(self, capsys):
        self.assert_guarded(capsys, "estimate", "--config",
                            '{"u": {"monomial": 1}, "phi": {"coeffs": ["1/2", "1/2"]},'
                            ' "truncation": {"degree": 3200}}',
                            label="dense substitution build")

    def test_constant_symbol_table_stores_degree_zero(self, capsys):
        """Every power of a constant symbol sits in degree 0, so the table
        stores that degree alone; the report is the one a full table gave."""
        config = '{"phi": {"coeffs": ["1/2"]}, "truncation": {"degree": %d}}'
        assert run_main(capsys, "estimate", "--quiet", "--config", config % 3200)[0] == 0
        code, out = run_main(capsys, "estimate", "--quiet", "--config", config % 3000)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8580f4b5adfe1a336baf4cc2d99ec27b80c006ef3814ca34944b30f8ba4927c0")

    def test_thm25_power_table(self, capsys):
        self.assert_guarded(capsys, "bound", "--theorem", "thm25", "--config",
                            '{"u": {"monomial": 1}, "phi": {"coeffs": [0, "1/2", "1/2"]},'
                            ' "truncation": {"degree": 3200}}',
                            label="power table")


class TestExplicitWeightLists:
    """Explicit weight lists: parsed once, and a list too short for a scan
    exits 2 naming the first index out of range."""

    @pytest.mark.parametrize("code, config, message", [
        ("cor24", '{"beta": {"values": ["1", "1/2", "1/4"]}, "truncation": {"degree": 12}}',
         "explicit beta list has 3 entries; index 3 is out of range"),
        ("thm23", '{"beta": {"values": ["1", "1/2", "1/4", "1/8"]},'
                  ' "delta": {"values": [1, 1, 1]}, "phi": {"monomial": 2},'
                  ' "truncation": {"degree": 12}}',
         "explicit delta list has 3 entries; index 3 is out of range"),
        ("thm22", '{"beta": {"values": ["1", "1/2", "1/4"]},'
                  ' "phi": {"coeffs": ["1/4", "1/4"]}, "truncation": {"degree": 12}}',
         "explicit beta list has 3 entries; index 3 is out of range"),
        ("thm25", '{"beta": {"values": ["1", "1/2", "1/4"]}, "u": {"monomial": 1},'
                  ' "phi": {"coeffs": [0, "1/2", "1/2"]}, "truncation": {"degree": 12}}',
         "explicit beta list has 3 entries; index 3 is out of range"),
        ("thm25", '{"beta": {"values": ["1", "1/2", "1/4", "1/8"]},'
                  ' "delta": {"values": [1, 1, 1]}, "u": {"monomial": 1},'
                  ' "phi": {"coeffs": [0, "1/2", "1/2"]}, "truncation": {"degree": 12}}',
         "explicit delta list has 3 entries; index 3 is out of range"),
    ])
    def test_short_list_exits_two(self, capsys, code, config, message):
        assert main(["bound", "--theorem", code, "--quiet", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fpsop: error: {message}\n"

    def test_thm22_reads_no_delta(self, capsys):
        """``C_phi`` is ``z**0 ◇ C_phi``, whose kernel is 1: a delta list of
        two entries, far short of degree 10, is never read."""
        config = ('{"delta": {"values": [1, 2]}, "phi": {"coeffs": [0, "1/2", "1/2"]},'
                  ' "truncation": {"degree": 10}}')
        assert main(["bound", "--theorem", "thm22", "--quiet", "--config", config]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("config, message", [
        ('{"delta": {"values": [1, 1, 1]}, "f": {"coeffs": [1, 1]},'
         ' "g": {"coeffs": [0, 1, 1]}, "truncation": {"degree": 6, "tail_window": 1}}',
         "explicit delta list has 3 entries; index 3 is out of range"),
        # Degrees 4 and 5 carry no term of the product, so the first index
        # read beyond the list is 6.
        ('{"delta": {"values": [1, 1, 1, 1, 1]}, "f": {"coeffs": [1, 0, 0, 0, 1]},'
         ' "g": {"coeffs": [0, 0, 1]}, "truncation": {"degree": 6, "tail_window": 1}}',
         "explicit delta list has 5 entries; index 6 is out of range"),
    ])
    def test_short_delta_list_in_a_product_exits_two(self, capsys, config, message):
        assert main(["product", "--quiet", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fpsop: error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        ('"beta": {"values": [1, Infinity]}', "beta entries must be finite, got inf"),
        ('"delta": {"values": [1, -Infinity]}', "delta entries must be finite, got -inf"),
    ])
    def test_non_finite_entry_exits_two(self, capsys, spec, message):
        config = '{%s, "phi": {"coeffs": ["1/4", "1/4"]}, "truncation": {"degree": 12}}' % spec
        assert main(["bound", "--theorem", "thm22", "--quiet", "--config", config]) == 2
        assert capsys.readouterr().err == f"fpsop: error: {message}\n"

    @pytest.mark.parametrize("entry, echo, built", [
        ("4/2", 2, 2),
        ("1/3", "1/3", Fraction(1, 3)),
        ("6/4", "3/2", Fraction(3, 2)),
        ("1/1", 1, 1),
        ("01/3", "1/3", Fraction(1, 3)),
        ("1/03", "1/3", Fraction(1, 3)),
        ("+1/3", "1/3", Fraction(1, 3)),
        (" 1/3\n", "1/3", Fraction(1, 3)),
        ("\u0661/\u0663", "1/3", Fraction(1, 3)),
        ("0.25", "1/4", Fraction(1, 4)),
        ("2.5e1", 25, 25),
        ("12", 12, 12),
    ])
    def test_entries_built_as_their_echo_reads(self, entry, echo, built):
        cfg = parse_config(json.dumps({"beta": {"values": ["1", entry, "1/3", 0.5, 3]},
                                       "truncation": {"degree": 4, "tail_window": 1}}))
        assert cfg.normalized["beta"] == {"values": [1, echo, "1/3", 0.5, 3]}
        values = [cfg.beta.value(n) for n in range(5)]
        assert values == [1, built, Fraction(1, 3), Fraction(1, 2), 3]
        assert [type(v) for v in values] == [int, type(built), Fraction, Fraction, int]


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

needs_digit_limit = pytest.mark.skipif(
    not _DIGIT_LIMIT, reason="this interpreter converts integers of any length to text")


@needs_digit_limit
class TestEchoDigitLimit:
    """An exact scalar whose echo has more digits than the interpreter writes
    an integer with exits 2 naming the entry, with or without the echo."""

    @pytest.mark.parametrize("quiet", [["--quiet"], []])
    @pytest.mark.parametrize("argv, entry", [
        (["norm", "--config", '{"f": {"coeffs": ["1e-%d"]}}' % _DIGIT_LIMIT], "f"),
        (["bound", "--theorem", "cor24", "--config",
          '{"beta": {"values": [1, "1e%d"]},'
          ' "truncation": {"degree": 1, "tail_window": 1}}' % _DIGIT_LIMIT], "beta"),
    ])
    def test_exits_two(self, capsys, argv, entry, quiet):
        code = main(argv + quiet)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"fpsop: error: bad {entry} entry '1e")
        assert "sys.set_int_max_str_digits()" in captured.err

    def test_limit_read_when_parsing(self):
        config = '{"beta": {"values": [1, "1e%d"]}}'
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert parse_config(config % 639).normalized["beta"]["values"][1] == 10 ** 639
            with pytest.raises(ConfigError, match="bad beta entry '1e640'"):
                parse_config(config % 640)
        finally:
            sys.set_int_max_str_digits(limit)


@needs_digit_limit
class TestIntegerTextPastDigitLimit:
    """An integer literal in the config, or an exact result, with more digits
    than the interpreter converts between int and text exits 2 naming the
    limit, with or without the echo, and writes no report."""

    @pytest.mark.parametrize("quiet", [["--quiet"], []])
    def test_integer_literal_in_config(self, capsys, quiet):
        config = '{"f": {"coeffs": [1%s]}}' % ("0" * _DIGIT_LIMIT)
        assert main(["norm", "--config", config] + quiet) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"fpsop: error: config has an integer literal with more than {_DIGIT_LIMIT} digits")

    def test_literal_limit_read_when_parsing(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            cfg = parse_config('{"f": {"coeffs": [1%s]}}' % ("0" * 639))
            assert cfg.normalized["f"] == {"coeffs": [10 ** 639]}
            with pytest.raises(ConfigError, match="literal with more than 640 digits"):
                parse_config('{"f": {"coeffs": [1%s]}}' % ("0" * 640))
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("quiet", [["--quiet"], []])
    def test_exact_result(self, capsys, tmp_path, quiet):
        # phi = 10**e z, so theta(5, 5) = 10**(5e) has more digits than the limit
        config = ('{"phi": {"coeffs": [0, "1e%d"]}, "n": 5, "power": 5}'
                  % (_DIGIT_LIMIT // 5 + 1))
        out = tmp_path / "report.json"
        assert main(["theta", "--config", config, "--out", str(out)] + quiet) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(
            f"fpsop: error: a result has more than {_DIGIT_LIMIT} digits")
        assert "sys.set_int_max_str_digits()" in captured.err


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                             "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def _scalar_texts(draw):
    """Config scalar strings: canonical ``a/b``, then one change each that
    makes it reducible or a form only ``Fraction(text)`` reads or rejects."""
    near_limit = ["7" * n for n in (_DIGIT_LIMIT - 1, _DIGIT_LIMIT, _DIGIT_LIMIT + 1) if n > 0]
    part = st.one_of(st.integers(1, 40).map(str), st.integers(1, 10 ** 24).map(str),
                     st.sampled_from(near_limit or ["7"]))
    num, den = draw(part), draw(part)
    sign = draw(st.sampled_from(["", "-"]))
    base = f"{sign}{num}/{den}"
    at = draw(st.integers(0, len(base)))
    blank = st.sampled_from([" ", "\t", "\n"])
    exponent = st.one_of(st.integers(-30, 30), st.sampled_from(
        [e for n in near_limit for e in (len(n) - len(num), len(n) - len(num) + 1, -len(n))]))
    forms = {
        "canonical": lambda: base,
        "reducible": lambda: f"{sign}{num}0/{den}0",
        "over one": lambda: f"{sign}{num}/1",
        "zero": lambda: f"{sign}0/{den}",
        "zero denominator": lambda: f"{sign}{num}/0",
        "whole": lambda: f"{sign}{num}",
        "plus": lambda: f"+{num}/{den}",
        "signed denominator": lambda: f"{num}/{draw(st.sampled_from(['-', '+']))}{den}",
        "leading zero": lambda: draw(st.sampled_from([f"{sign}0{num}/{den}",
                                                      f"{sign}{num}/0{den}"])),
        "inserted": lambda: base[:at] + draw(st.sampled_from(
            ["_", " ", "\t", "+", "-", "/", ".", "e", "\u0663", "\u00b2"])) + base[at:],
        "blank ends": lambda: draw(st.sampled_from([draw(blank) + base, base + draw(blank)])),
        "blank slash": lambda: draw(st.sampled_from([f"{sign}{num}{draw(blank)}/{den}",
                                                     f"{sign}{num}/{draw(blank)}{den}"])),
        "underscore": lambda: draw(st.sampled_from([f"{sign}{num}_7/{den}",
                                                    f"{sign}{num}/{den}_7"])),
        "non-ASCII digit": lambda: base[:at] + base[at:at + 1].translate(_ARABIC_INDIC)
        + base[at + 1:],
        "non-ASCII digits": lambda: base.translate(_ARABIC_INDIC),
        "decimal": lambda: f"{sign}{num}.{den}",
        "exponent": lambda: f"{sign}{num}{draw(st.sampled_from(['', '.5']))}e{draw(exponent)}",
        "two slashes": lambda: f"{base}/{den}",
        "special": lambda: draw(st.sampled_from(["", "/", "-", "-/3", "1/", "inf", "nan",
                                                 "-0/3", "0/5", "1/1", "1/0"])),
    }
    return forms[draw(st.sampled_from(sorted(forms)))]()


class TestScalarTextRoute:
    """``a/b`` text read without ``Fraction(str)`` gives what ``Fraction(str)``
    and ``str(Fraction)`` gave, in this interpreter (3.10 rejects ``_`` in a
    numeral, later versions accept it)."""

    @staticmethod
    def assert_as_reference(text):
        try:
            echo, value = parse_once_reference(text, "beta")
            if isinstance(echo, int):
                str(echo)  # a report could not write a longer echo
        except ConfigError as exc:
            expected = str(exc)
        except ValueError as exc:  # the echo has more digits than str() writes
            expected = f"bad beta entry {text!r}: {exc}"
        else:
            got_echo, got_value = _parse_once(text, "beta")
            assert (got_echo, type(got_echo)) == (echo, type(echo))
            assert (got_value, type(got_value)) == (value, type(value))
            scalar = _parse_echo(text, "p")[1]
            assert scalar == value and type(scalar) is Fraction
            return
        with pytest.raises(ConfigError) as raised:
            _parse_once(text, "beta")
        assert str(raised.value) == expected

    @given(_scalar_texts())
    @settings(max_examples=600, deadline=None)
    def test_same_echo_value_and_error_as_fraction_text(self, text):
        self.assert_as_reference(text)

    @pytest.mark.parametrize("text", [
        "1/3", "-1/3", "12/18", "4/2", "1/1", "-0/3", "0/5", "1/0", "01/3", "1/03",
        "+1/3", "1/+3", "1 /3", "1/ 3", " 1/3", "1/3\n", "1_0/3", "1/3_0",
        "\u0661/\u0662", "1\u0661/3", "1.5", "1e3", "1e-3", "3", "-", "/", "-/3",
        "1/", "", "inf", "nan", "1/2/3", "1-2/3", "--1/3", "1/-3",
    ])
    def test_edge_texts(self, text):
        self.assert_as_reference(text)


_IMPORT_GUARD = textwrap.dedent("""
    import contextlib, io, sys
    import fpsop, fpsop.cli

    def numerics():
        return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

    def run(command, config):
        if not config.startswith("{"):
            config = "configs/" + config + ".json"
        with contextlib.redirect_stdout(io.StringIO()):
            return fpsop.cli.main([command, "--config", config, "--quiet"])

    assert numerics() == [], numerics()
    for command, config in (
            ("bound", "bound-progression-pair"), ("norm", "norm-two-term"),
            ("product", "product-binomial-kernel"), ("compose", "compose-affine-cube"),
            ("theta", "theta-shifted-square"),
            ("check-algebra", "check-algebra-inverse-factorial"),
            # Lone columns only, or p = 1: the oracle takes plain floats.
            ("estimate", "estimate-composition-geometric"),
            ("estimate", "estimate-substitution-tight"),
            ("estimate", '{"p": 3, "beta": "bergman", "phi": {"monomial": 2}, "seed": 7, '
                         '"truncation": {"degree": 64}}'),
            ("estimate", '{"p": 1, "beta": "hardy", "delta": "inverse-factorial", '
                         '"u": {"coeffs": [1, "1/2", "1/5"]}, "truncation": {"degree": 48}}')):
        assert run(command, config) == 0, command
        assert numerics() == [], (command, numerics())
    # An E07-shaped diamond multiplier has coupled columns, which need numpy at p = 2.
    assert run("estimate", '{"beta": "hardy", "delta": "inverse-factorial", '
               '"u": {"coeffs": [1, "1/2", "1/5"]}, "truncation": {"degree": 48}}') == 0
    assert numerics() == ["numpy"], numerics()
""")


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter on ``src/``: this test process
    already holds numpy and scipy through the operator tests."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_estimate_imports_numpy():
    _fresh_python(_IMPORT_GUARD)


_LAUNCH_GUARD = textwrap.dedent("""
    import contextlib, io, sys
    before = set(sys.modules)
    import fpsop.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert fpsop.cli.main(["norm", "--config", "configs/norm-two-term.json",
                               "--quiet"]) == 0
    new = {"dataclasses", "inspect"} & (set(sys.modules) - before)
    assert not new, sorted(new)
""")


def test_launch_imports_neither_dataclasses_nor_inspect():
    _fresh_python(_LAUNCH_GUARD)


_LOAD_MAP_GUARD = textwrap.dedent("""
    import contextlib, io, sys

    def loaded():
        return sorted(m[len("fpsop."):] for m in sys.modules if m.startswith("fpsop."))

    import fpsop
    assert loaded() == [], loaded()
    fpsop.BoundCertificate
    assert loaded() == ["weights"], loaded()

    # Each command's modules include the previous command's, so in one
    # interpreter a command that loaded more than its row would show here.
    import fpsop.cli
    rows = (("norm", "norm-two-term", []), ("product", "product-binomial-kernel", []),
            ("compose", "compose-affine-cube", []),
            ("theta", "theta-shifted-square", ["combinatorics"]),
            ("bound", "bound-composition-geometric", ["combinatorics", "criteria"]),
            ("check-algebra", "check-algebra-inverse-factorial",
             ["combinatorics", "criteria"]),
            ("estimate", "estimate-composition-geometric",
             ["combinatorics", "criteria", "operators"]))
    for command, config, extra in rows:
        with contextlib.redirect_stdout(io.StringIO()):
            assert fpsop.cli.main([command, "--config", "configs/" + config + ".json",
                                   "--quiet"]) == 0
        assert loaded() == sorted(["cli", "series", "weights", *extra]), (command, loaded())

    assert fpsop.__all__[-1] == "__version__"
    for name in fpsop.__all__[:-1]:
        obj = getattr(fpsop, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert not hasattr(fpsop, "no_such_name")

    from fpsop import criteria, operators, weights
    for module, names in ((operators, ("BoundCertificate", "CERTIFICATE_KINDS",
                                       "ResourceLimitError", "DENSE_ENTRY_LIMIT", "_guard")),
                          (criteria, ("CriterionRequest", "BoundCertificate", "_guard"))):
        for name in names:
            assert getattr(module, name) is getattr(weights, name), (module, name)
""")


def test_each_command_loads_only_the_modules_it_runs():
    _fresh_python(_LOAD_MAP_GUARD)


@pytest.mark.parametrize("command, name, spans", [
    ("estimate", "estimate-composition-geometric",
     {"operators.build_matrix", "operators.column_lower_bound", "criteria.thm21"}),
    ("bound", "bound-composition-geometric", {"criteria.thm22", "combinatorics.PowerTable"}),
])
def test_traced_launch_records_each_layer(tmp_path, command, name, spans):
    """The benchmark's traced launch patches ``cli``'s evaluators and matrix
    functions after import; the commands must call the patched ones, or the
    per-layer metrics read zero while the report stays right."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "traced_cli.py"), "--spans", str(spans_path),
         "--request-id", "r", "--", command, "--config", "configs/" + name + ".json",
         "--quiet"], cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(REPO_ROOT, "tests", "golden_reports.json"), encoding="utf-8") as fh:
        assert proc.stdout == json.load(fh)["configs/" + name]
    recorded = {span[3] for span in json.loads(spans_path.read_text())["spans"]}
    assert spans <= recorded, sorted(recorded)


_WITHOUT_SCIPY = textwrap.dedent("""
    import contextlib, io, json, sys
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
    import fpsop.cli

    reports = {}
    for name in ("estimate-composition-geometric", "estimate-substitution-tight"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fpsop.cli.main(["estimate", "--config", "configs/" + name + ".json",
                                   "--quiet"])
        assert code == 0, name
        reports["configs/" + name] = out.getvalue()
    print(json.dumps(reports))
""")


def test_estimate_runs_without_scipy():
    reports = json.loads(_fresh_python(_WITHOUT_SCIPY))
    with open(os.path.join(REPO_ROOT, "tests", "golden_reports.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert reports == {name: golden[name] for name in reports}
