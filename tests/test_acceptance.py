"""Acceptance gate: one test per criterion, each at its stated tolerance.

Prints one PASS/FAIL line per criterion (visible with `pytest -s`, and in
the captured-output section on failure).  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math

import numpy as np

from finwell import (
    FitCoefficients,
    FitGrid,
    PAPER_FIT,
    Response,
    classify_response,
    critical_width,
    denergy_dpressure,
    energy_ratio,
    eval_fit,
    expansion_small_width,
    fit_inverse_poly,
    hydrogen_well,
    pressure_1d,
    probability_interval,
    refit,
    solve_even_root,
    well_strength,
)
from finwell.audit import build_verify_report

from oracles import adaptive_simpson, central_difference

C = PAPER_FIT.c
PUBLISHED_CRITICAL_RATIO = 2.476601


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_root_residual_and_pythagoras():
    rng = np.random.default_rng(0)
    worst_resid = 0.0
    worst_pyth = 0.0
    for n in rng.uniform(0.1, 100.0, 1000):
        n = float(n)
        xi = solve_even_root(n)
        eta2 = n * n - xi * xi
        resid = abs(xi * math.tan(xi) - math.sqrt(max(eta2, 0.0))) / max(1.0, n)
        worst_resid = max(worst_resid, resid)
        eta = math.sqrt(max(eta2, 0.0))
        worst_pyth = max(worst_pyth, abs(xi * xi + eta * eta - n * n) / (n * n))
    _report(
        "1",
        worst_resid <= 1e-12 and worst_pyth <= 1e-12,
        f"max residual {worst_resid:.2e} (tol 1e-12), "
        f"max Pythagorean error {worst_pyth:.2e} (tol 1e-12)",
    )


def test_criterion_02_infinite_well_limit():
    target = math.pi**2 / 4
    dev50 = abs(energy_ratio(50.0) * 50.0**2 - target) / target
    dev200 = abs(energy_ratio(200.0) * 200.0**2 - target) / target
    _report(
        "2",
        dev50 <= 0.05 and dev200 <= 0.01,
        f"n=50 dev {dev50:.3%} (tol 5%), n=200 dev {dev200:.3%} (tol 1%)",
    )


def test_criterion_03_published_set_vs_exact():
    worst = max(
        abs(eval_fit(PAPER_FIT, float(n)) - energy_ratio(float(n)))
        for n in range(2, 11)
    )
    _report("3", worst <= 1e-4, f"max |fit - exact| over n=2..10: {worst:.2e} (tol 1e-4)")


def test_criterion_04_refit_sigma_and_recovery():
    fitted = refit()
    sigma_ok = fitted.sigma <= 1e-5

    rng = np.random.default_rng(101)
    ns = np.linspace(1.0, 10.0, 25)
    worst = 0.0
    for _ in range(100):
        c = tuple(rng.uniform(-10.0, 10.0, 6))
        synthetic = FitCoefficients(c=c, sigma=0.0, source="refit")
        points = [(float(n), eval_fit(synthetic, float(n))) for n in ns]
        recovered = fit_inverse_poly(points)
        worst = max(worst, max(abs(g - w) for g, w in zip(recovered.c, c)))
    _report(
        "4",
        sigma_ok and worst <= 1e-9,
        f"sigma {fitted.sigma:.2e} (tol 1e-5), worst recovery error {worst:.2e} (tol 1e-9)",
    )


def test_criterion_05_critical_ratio():
    a0_dev = abs(
        critical_width(1.0, PAPER_FIT, "paper").a0_paper - PUBLISHED_CRITICAL_RATIO
    ) / PUBLISHED_CRITICAL_RATIO
    grids = [FitGrid(1.0, 10.0, 12), FitGrid(1.25, 9.5, 12), FitGrid(1.5, 10.0, 35)]
    ratios = [-7.5 * f.c[5] / f.c[4] for f in map(refit, grids)]
    devs = [abs(r - PUBLISHED_CRITICAL_RATIO) / PUBLISHED_CRITICAL_RATIO for r in ratios]
    _report(
        "5",
        a0_dev <= 1e-5 and all(d <= 0.10 for d in devs),
        f"a0/K dev {a0_dev:.2e} (tol 1e-5), sub-grid ratios "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + f" (devs {', '.join(f'{d:.1%}' for d in devs)}, tol 10%)",
    )


def test_criterion_06_hydrogen_reproduction():
    cfg = hydrogen_well()
    K = well_strength(cfg).characteristic_length
    a0 = critical_width(K, PAPER_FIT, "paper").a0_paper
    outcome = classify_response(cfg.half_width, K, PAPER_FIT).outcome
    k_dev = abs(K - 5.2918e-11) / 5.2918e-11
    a0_dev = abs(a0 - 1.31056e-10) / 1.31056e-10
    _report(
        "6",
        k_dev <= 0.002 and a0_dev <= 0.002 and outcome is Response.IONIZES,
        f"K dev {k_dev:.2e}, a0 dev {a0_dev:.2e} (tol 0.2%), classification {outcome.value}",
    )


def test_criterion_07_pressure_vs_finite_difference():
    cfg = hydrogen_well()
    K = well_strength(cfg).characteristic_length
    V0 = cfg.depth
    energy = lambda w: V0 * eval_fit(PAPER_FIT, w / K)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 3.0, 5.0):
        a = t * K
        fd = -central_difference(energy, a, 1e-6 * a)
        rel = abs(pressure_1d(a, K, PAPER_FIT, V0) - fd) / abs(fd)
        worst = max(worst, rel)
    _report("7", worst <= 1e-6, f"max rel error {worst:.2e} over a/K in {{0.5,1,2,3,5}} (tol 1e-6)")


def test_criterion_08_dedp_identity_and_expansion():
    def dedp_series_oracle(t):
        de_da = -sum(i * C[i] / t ** (i + 1) for i in range(1, 6))
        dp_da = -sum(i * (i + 1) * C[i] / t ** (i + 2) for i in range(1, 6))
        return de_da / dp_da

    t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
    rng = np.random.default_rng(2)
    worst_identity = 0.0
    checked = 0
    while checked < 1000:
        t = float(rng.uniform(0.05, 10.0))
        if abs(t - t_pole) < 0.01 * t_pole:
            continue
        checked += 1
        lhs = denergy_dpressure(t, 1.0, PAPER_FIT, "consistent")
        rhs = dedp_series_oracle(t)
        worst_identity = max(worst_identity, abs(lhs - rhs) / abs(rhs))

    err = lambda a: abs(
        expansion_small_width(a, 1.0, PAPER_FIT)
        - denergy_dpressure(a, 1.0, PAPER_FIT, "consistent")
    )
    rel_at_001 = err(0.01) / abs(denergy_dpressure(0.01, 1.0, PAPER_FIT, "consistent"))
    shrink = err(0.01) / err(0.001)
    _report(
        "8",
        worst_identity <= 1e-12 and rel_at_001 <= 0.01 and shrink >= 30.0,
        f"identity worst rel {worst_identity:.2e} (tol 1e-12), "
        f"expansion rel at a/K=0.01 {rel_at_001:.2e} (tol 1%), shrink x{shrink:.0f} (min 30)",
    )


def test_criterion_09_verify_report_flags():
    checks = {c.check_id: c for c in build_verify_report()}
    verdicts = {cid: c.verdict for cid, c in checks.items()}
    expected = {
        "pressure-series-v0": "discrepant",          # printed series lacks V0
        "dedp-printed-k0-limit": "discrepant",       # printed a/4 vs printed a/2
        "small-width-expansion": "consistent",
        "small-k-expansion-third-term": "discrepant",
        "critical-width": "discrepant",              # series zero vs numeric zero
    }
    cw = checks["critical-width"]
    quartic = [C[1], 2 * C[2], 3 * C[3], 4 * C[4], 5 * C[5]]
    oracle_zero = min(
        r.real for r in np.roots(quartic) if abs(r.imag) < 1e-9 and r.real > 0
    )
    values_ok = (
        abs(cw.printed - PUBLISHED_CRITICAL_RATIO) / PUBLISHED_CRITICAL_RATIO <= 1e-5
        and abs(cw.rederived - oracle_zero) <= 1e-6
    )
    _report(
        "9",
        verdicts == expected and values_ok,
        f"verdicts {verdicts}, numeric zero {cw.rederived:.6f} "
        f"(oracle {oracle_zero:.6f}) alongside printed {cw.printed:.6f}",
    )


def test_criterion_10_probability():
    rng = np.random.default_rng(42)
    worst_quad = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.3, 4.0))
        beta = float(rng.uniform(0.0, 10.0)) / a
        gamma = float(rng.uniform(0.0, 1.0))
        # The in-well density up to its normalization, which the ratio drops.
        density = lambda x: math.cosh(beta * x) ** 2
        tol = 1e-12 * density(a)
        quad = (adaptive_simpson(density, -gamma * a, gamma * a, tol=tol)
                / adaptive_simpson(density, -a, a, tol=tol))
        worst_quad = max(
            worst_quad, abs(probability_interval(a, beta, gamma).probability - quad)
        )

    endpoints_ok = (
        probability_interval(1.0, 2.0, 0.0).probability == 0.0
        and probability_interval(1.0, 2.0, 1.0).probability == 1.0
    )

    # The paper's small-beta expansion R = gamma (1 + (a beta)^2 (gamma^2 - 1)/3),
    # at a = 1, agrees with the closed form to fourth order in a beta.
    gamma = 0.5
    err = lambda ab: abs(
        gamma * (1.0 + ab * ab * (gamma * gamma - 1.0) / 3.0)
        - probability_interval(1.0, ab, gamma).probability
    )
    ratio = err(0.02) / err(0.01)
    _report(
        "10",
        worst_quad <= 1e-10 and endpoints_ok and 12.0 <= ratio <= 20.0,
        f"max |closed form - cosh^2 quadrature| {worst_quad:.2e} (tol 1e-10), "
        f"R(0)=0 and R(1)=1 {endpoints_ok}, fourth-order ratio {ratio:.2f} (band [12, 20])",
    )
