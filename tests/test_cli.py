import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from fpsop.cli import COMMANDS, Config, ConfigError, main, parse_config, run

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
        assert cfg.u.coeffs == (1,)
        assert cfg.space.truncation_degree == 512
        assert cfg.seed == 0

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
        assert cfg.p == Fraction(3, 2)
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
        assert named["progression-ratio-lower"]["value"] == "inf"
        assert named["progression-ratio-lower"]["converged"] is False

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

    def test_timings_flag_fills_elapsed(self, capsys):
        code, out = run_main(capsys, "theta", "--config",
                             '{"beta": {"preset": "hardy"},'
                             ' "phi": {"coeffs": [0, 1, 1]}, "n": 3, "power": 2}',
                             "--timings")
        assert code == 0
        assert json.loads(out)["elapsed_ms"] > 0


class TestConflictingSymbolKeys:
    def test_stride_disagreeing_with_phi_exits_two(self, capsys):
        for argv in (["estimate"], ["bound", "--theorem", "cor26"]):
            code = main(argv + ["--config", CONFLICTING_STRIDE])
            assert code == 2
            assert "stride=3 conflicts with phi" in capsys.readouterr().err

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

    def test_entries_built_as_their_echo_reads(self):
        cfg = parse_config('{"beta": {"values": ["1", "4/2", "1/3", 0.5, 3]},'
                           ' "truncation": {"degree": 4, "tail_window": 1}}')
        assert cfg.normalized["beta"] == {"values": [1, 2, "1/3", 0.5, 3]}
        built = [cfg.beta.value(n) for n in range(5)]
        assert built == [1, 2, Fraction(1, 3), Fraction(1, 2), 3]
        assert [type(v) for v in built] == [int, int, Fraction, Fraction, int]


_IMPORT_GUARD = textwrap.dedent("""
    import contextlib, io, sys
    import fpsop, fpsop.cli

    def numerics():
        return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

    def run(command, config):
        with contextlib.redirect_stdout(io.StringIO()):
            return fpsop.cli.main([command, "--config", "configs/" + config + ".json",
                                   "--quiet"])

    assert numerics() == [], numerics()
    for command, config in (
            ("bound", "bound-progression-pair"), ("norm", "norm-two-term"),
            ("product", "product-binomial-kernel"), ("compose", "compose-affine-cube"),
            ("theta", "theta-shifted-square"),
            ("check-algebra", "check-algebra-inverse-factorial")):
        assert run(command, config) == 0, command
        assert numerics() == [], (command, numerics())
    assert run("estimate", "estimate-substitution-tight") == 0
    assert numerics() == ["numpy", "scipy"], numerics()
""")


def test_only_estimate_imports_numpy_and_scipy():
    # A fresh interpreter: this test process already holds numpy through the
    # operator tests.
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
