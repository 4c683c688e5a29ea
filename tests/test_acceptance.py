"""Acceptance suite: every shipped guarantee, one visible pass/fail line each.

Run with plain ``pytest``; the verdict lines print even in quiet mode so a
log always shows which guarantees were exercised and how they fared.
"""

import glob
import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from fpsop.cli import main as cli_main
from fpsop.combinatorics import PowerTable, power_coefficient
from fpsop.criteria import (
    CriterionRequest,
    composition_bounds_polynomial,
    composition_norm_monomial,
    multiplier_algebra_bound,
    substitution_bounds_monomial_multiplier,
    substitution_bounds_monomial_pair,
    substitution_bounds_monomial_symbol,
)
from fpsop.operators import apply, build_matrix, norm_estimate_l2
from fpsop.series import (
    PolynomialSymbol,
    TruncatedSeries,
    cauchy_product,
    diamond_product,
    diamond_substitute,
    norm,
)
from fpsop.weights import SpaceConfig, make_beta, make_delta

from oracles import rand_coeffs, rand_rational, rand_symbol_coeffs, table_row

ones = make_delta("ones")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def verdict(capsys):
    emitted = []

    def _verdict(label, ok, detail=""):
        with capsys.disabled():
            tag = "PASS" if ok else "FAIL"
            line = f"[{tag}] {label}"
            if detail:
                line += f" ({detail})"
            print(line)
        emitted.append(ok)
        return ok

    yield _verdict
    assert emitted, "criterion ran without reporting a verdict"


def geometric_beta_values(n_top):
    return [Fraction(1, 2 ** n) for n in range(n_top + 1)]


def test_criterion_1_composition_norm_equality(verdict):
    failures = []
    for name in ("hardy", "bergman", "dirichlet"):
        beta = make_beta(name)
        for m in (2, 3, 4):
            started = time.perf_counter()
            T = build_matrix(None, PolynomialSymbol.monomial(m),
                             ones, m * 2048, 2048)
            est = norm_estimate_l2(T, beta)
            sup = max(float(beta.value(n * m)) / float(beta.value(n))
                      for n in range(2049))
            elapsed = time.perf_counter() - started
            if abs(est.value - sup) > 1e-9:
                failures.append(f"{name} m={m}: |{est.value}-{sup}|>1e-9")
            if elapsed >= 10.0:
                failures.append(f"{name} m={m}: took {elapsed:.1f}s")
    ok = verdict("criterion 1: the l2 oracle matches the monomial "
                 "composition norm on 9 weight/stride cases", not failures,
                 "; ".join(failures) or "max err <= 1e-9")
    assert ok, failures


def test_criterion_2_sandwich_suites(verdict):
    failures = []
    n = 512
    beta_geo = make_beta(geometric_beta_values(2 * n + 2))
    space = SpaceConfig(p=2, truncation_degree=n)

    T1 = build_matrix(None, PolynomialSymbol.monomial(2),
                      ones, 2 * n, n)
    oracle1 = norm_estimate_l2(T1, beta_geo).value
    up1, lo1 = composition_bounds_polynomial(CriterionRequest(
        beta=beta_geo, delta=ones, space=space, phi=PolynomialSymbol.monomial(2)))
    if not (lo1.value - 1e-9 <= oracle1 <= up1.value + 1e-9):
        failures.append(f"(i) bracket broken: {lo1.value} / {oracle1} / {up1.value}")
    if abs(lo1.value - 1.0) > 1e-9 or abs(up1.value - 2 / math.sqrt(3)) > 1e-9:
        failures.append("(i) endpoints drifted from 1 and 2/sqrt(3)")

    u = TruncatedSeries.monomial(1)
    T2 = build_matrix(u, PolynomialSymbol.monomial(2),
                      ones, 2 * n + 1, n)
    oracle2 = norm_estimate_l2(T2, beta_geo).value
    up2, lo2 = substitution_bounds_monomial_multiplier(CriterionRequest(
        beta=beta_geo, delta=ones, space=space,
        phi=PolynomialSymbol.monomial(2), u=TruncatedSeries.monomial(1)))
    if not (lo2.value - 1e-9 <= oracle2 <= up2.value + 1e-9):
        failures.append(f"(ii) bracket broken: {lo2.value} / {oracle2} / {up2.value}")
    if abs(lo2.value - 0.5) > 1e-9 or abs(up2.value - 1 / math.sqrt(3)) > 1e-9:
        failures.append("(ii) endpoints drifted from 1/2 and 1/sqrt(3)")

    beta_dir = make_beta("dirichlet")
    T3 = build_matrix(u, PolynomialSymbol.monomial(2),
                      ones, 2 * n + 1, n)
    oracle3 = norm_estimate_l2(T3, beta_dir).value
    gamma, kappa = substitution_bounds_monomial_pair(CriterionRequest(
        beta=beta_dir, delta=ones, space=space, u=TruncatedSeries.monomial(1),
        phi=PolynomialSymbol.monomial(2)))
    root2 = math.sqrt(2)
    if not (kappa.value - 1e-9 <= oracle3 <= gamma.value + 1e-9):
        failures.append(f"(iii) bracket broken: {kappa.value} / {oracle3} / {gamma.value}")
    if abs(oracle3 - root2) > 1e-3 or abs(gamma.value - root2) > 1e-3 \
            or gamma.value != kappa.value:
        failures.append("(iii) pair not tight at sqrt(2)")

    ok = verdict("criterion 2: three p=2 sandwich suites bracket the "
                 "matrix oracle at N=512", not failures,
                 "; ".join(failures) or
                 f"oracles {oracle1:.6f}, {oracle2:.6f}, {oracle3:.6f}")
    assert ok, failures


def test_criterion_3_exact_constants(verdict):
    failures = []
    inv_fact = make_delta("inverse-factorial")
    hardy = make_beta("hardy")

    cert = multiplier_algebra_bound(CriterionRequest(
        beta=hardy, delta=inv_fact, space=SpaceConfig(p=2, truncation_degree=100)))
    if abs(cert.value ** 2 - 2.25) > 1e-12 or cert.attained_at != 2:
        failures.append(f"algebra constant: {cert.value ** 2} at {cert.attained_at}")

    up, _ = substitution_bounds_monomial_symbol(CriterionRequest(
        beta=hardy, delta=inv_fact, space=SpaceConfig(p=2, truncation_degree=100),
        phi=PolynomialSymbol.monomial(2)))
    if abs(up.value ** 2 - float(Fraction(73, 36))) > 1e-12 or up.attained_at != 4:
        failures.append(f"stride constant: {up.value ** 2} at {up.attained_at}")

    beta_gauss = make_beta([Fraction(1, 2 ** (k * k)) for k in range(65)])
    cert_g = multiplier_algebra_bound(CriterionRequest(
        beta=beta_gauss, delta=ones, space=SpaceConfig(p=2, truncation_degree=64)))
    if abs(cert_g.value ** 2 - 2.0625) > 1e-12 or cert_g.attained_at != 2:
        failures.append(f"gaussian constant: {cert_g.value ** 2} at {cert_g.attained_at}")

    beta_geo = make_beta(geometric_beta_values(512))
    up_c, _ = composition_bounds_polynomial(CriterionRequest(
        beta=beta_geo, delta=ones, space=SpaceConfig(p=2, truncation_degree=512),
        phi=PolynomialSymbol.monomial(2)))
    if abs(up_c.value ** 2 - float(Fraction(4, 3))) > 1e-12:
        failures.append(f"power-sum constant: {up_c.value ** 2}")

    ok = verdict("criterion 3: exact constants 9/4, 73/36, 33/16, 4/3 "
                 "recovered to 1e-12", not failures, "; ".join(failures))
    assert ok, failures


def test_criterion_4_power_coefficients_match_products(verdict):
    rng = random.Random(2024)
    started = time.perf_counter()
    failures = []
    for _ in range(100):
        phi = PolynomialSymbol.from_coeffs(rand_symbol_coeffs(rng, 4))
        d = phi.degree
        table = PowerTable(phi, 4 * 8, 8)
        for big_l in range(9):
            row = table_row(table, big_l)
            for n in range(min(d * big_l, 32) + 1):
                if power_coefficient(phi, n, big_l) != row[n]:
                    failures.append(f"phi={phi.alphas} n={n} L={big_l}")
            if any(v != 0 for v in row[d * big_l + 1:]):
                failures.append(f"phi={phi.alphas} L={big_l}: support leak")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s")
    ok = verdict("criterion 4: enumerated power coefficients equal repeated "
                 "exact products on 100 random symbols", not failures,
                 "; ".join(failures[:3]) or f"{elapsed:.2f}s")
    assert ok, failures


def test_criterion_5_algebra_axioms(verdict):
    rng = random.Random(77)
    deltas = [ones, make_delta("factorial"), make_delta("inverse-factorial")]
    failures = []
    n_bound = 61

    hardy = make_beta("hardy")
    beta_gauss = make_beta([Fraction(1, 2 ** (k * k)) for k in range(128)])
    sub_configs = []
    cert_a = multiplier_algebra_bound(CriterionRequest(
        beta=hardy, delta=make_delta("inverse-factorial"),
        space=SpaceConfig(p=2, truncation_degree=64)))
    sub_configs.append((make_delta("inverse-factorial"), hardy, cert_a.value))
    cert_b = multiplier_algebra_bound(CriterionRequest(
        beta=beta_gauss, delta=ones, space=SpaceConfig(p=2, truncation_degree=64)))
    sub_configs.append((ones, beta_gauss, cert_b.value))

    one = TruncatedSeries.unity(0)
    for i in range(100):
        delta = deltas[i % 3]
        f = TruncatedSeries(tuple(rand_coeffs(rng, 20)))
        g = TruncatedSeries(tuple(rand_coeffs(rng, 20)))
        h = TruncatedSeries(tuple(rand_coeffs(rng, 20)))
        a = rand_rational(rng)
        fg = diamond_product(f, g, delta, n_bound)
        if fg.coeffs != diamond_product(g, f, delta, n_bound).coeffs:
            failures.append(f"sample {i}: commutativity")
        left = diamond_product(fg, h, delta, n_bound)
        right = diamond_product(f, diamond_product(g, h, delta, n_bound),
                                delta, n_bound)
        if left.coeffs != right.coeffs:
            failures.append(f"sample {i}: associativity")
        lin_l = diamond_product(a * f + g, h, delta, n_bound)
        lin_r = a * diamond_product(f, h, delta, n_bound) \
            + diamond_product(g, h, delta, n_bound)
        if lin_l.coeffs != lin_r.coeffs:
            failures.append(f"sample {i}: bilinearity")
        if diamond_product(f, one, delta, n_bound).coeffs != f.pad(n_bound).coeffs:
            failures.append(f"sample {i}: unity")
        for sub_delta, sub_beta, factor in sub_configs:
            prod = diamond_product(f, g, sub_delta, n_bound)
            lhs = norm(prod, sub_beta, 2)
            rhs = factor * norm(f, sub_beta, 2) * norm(g, sub_beta, 2)
            if lhs > rhs + 1e-9:
                failures.append(f"sample {i}: submultiplicativity {lhs} > {rhs}")
    ok = verdict("criterion 5: algebra axioms hold exactly and the product "
                 "norm stays submultiplicative on 100 random triples",
                 not failures, "; ".join(failures[:3]))
    assert ok, failures


def test_criterion_6_two_path_equivalence(verdict):
    rng = random.Random(123)
    deltas = [ones, make_delta("factorial"), make_delta("inverse-factorial"),
              make_delta("geometric", ratio=Fraction(1, 2))]
    failures = []
    for i in range(100):
        delta = deltas[i % 4]
        u = TruncatedSeries(tuple(rand_coeffs(rng, 4)))
        f = TruncatedSeries(tuple(rand_coeffs(rng, 5)))
        phi = PolynomialSymbol.from_coeffs(rand_symbol_coeffs(rng, 3))
        n_rows = 4 + 5 * 3
        T = build_matrix(u, phi, delta, n_rows, f.degree_bound)
        via_matrix = apply(T, f)
        direct = diamond_substitute(u, f, phi, delta, n_rows)
        if via_matrix.coeffs != direct.coeffs:
            failures.append(f"sample {i}")
    ok = verdict("criterion 6: matrix route equals direct substitution on "
                 "100 random rational quadruples", not failures,
                 "; ".join(failures[:5]))
    assert ok, failures


def test_criterion_7_divergence_detection(verdict):
    failures = []
    hardy = make_beta("hardy")
    space = SpaceConfig(p=2, truncation_degree=512)

    up, _ = composition_bounds_polynomial(CriterionRequest(
        beta=hardy, delta=ones, space=space, phi=PolynomialSymbol.monomial(2)))
    if not (math.isinf(up.value) and not up.converged):
        failures.append(f"flat power sum: {up.value}, converged={up.converged}")

    cert = multiplier_algebra_bound(CriterionRequest(
        beta=hardy, delta=ones, space=space))
    if not (math.isinf(cert.value) and not cert.converged):
        failures.append(f"flat algebra constant: {cert.value}")

    # A lower never reads inf: it keeps its largest ratio, N + 1, flagged divergent.
    _, kappa = substitution_bounds_monomial_pair(CriterionRequest(
        beta=hardy, delta=make_delta("factorial"), space=space,
        u=TruncatedSeries.monomial(1), phi=PolynomialSymbol.monomial(1)))
    if not (kappa.value == 513.0 and not kappa.converged and any(
            "divergent" in note for note in kappa.notes)):
        failures.append(f"factorial progression: {kappa.value}, notes={kappa.notes}")

    ok = verdict("criterion 7: the three unbounded configurations are flagged "
                 "divergent with converged=false, the uppers as infinity", not failures,
                 "; ".join(failures))
    assert ok, failures


def _config_command(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("theorem"):
        return "bound"
    stem = os.path.basename(path)
    for command in ("check-algebra", "estimate", "norm", "product",
                    "compose", "theta"):
        if stem.startswith(command):
            return command
    return "bound"


def test_criterion_8_cli_configs_stable(verdict, tmp_path):
    patterns = [os.path.join(REPO_ROOT, "configs", "*.json"),
                os.path.join(REPO_ROOT, "examples", "*.json")]
    paths = sorted(p for pattern in patterns for p in glob.glob(pattern))
    assert paths, "no shipped configs found"
    failures = []
    for i, path in enumerate(paths):
        command = _config_command(path)
        out_a = tmp_path / f"{i}a.json"
        out_b = tmp_path / f"{i}b.json"
        code_a = cli_main([command, "--config", path, "--out", str(out_a)])
        code_b = cli_main([command, "--config", path, "--out", str(out_b)])
        name = os.path.basename(path)
        if code_a != 0 or code_b != 0:
            failures.append(f"{name}: exit {code_a}/{code_b}")
        elif out_a.read_bytes() != out_b.read_bytes():
            failures.append(f"{name}: reports differ between runs")
    ok = verdict(f"criterion 8: {len(paths)} shipped CLI configs exit 0 "
                 "with byte-stable reports", not failures,
                 "; ".join(failures[:5]))
    assert ok, failures
