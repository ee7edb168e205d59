import math

import numpy as np
import pytest

from finwell import (
    DomainError,
    FitCoefficients,
    NoRoot,
    NumericalError,
    PAPER_FIT,
    PoleSingularity,
    Response,
    classify_response,
    critical_width,
    denergy_dpressure,
    eval_fit,
    expansion_small_k,
    expansion_small_width,
    pressure_1d,
    pressure_columns,
    pressure_profile,
)

from oracles import central_difference

C = PAPER_FIT.c
ZERO_FIT = FitCoefficients(c=(0.0,) * 6, sigma=0.0, source="refit")


def make_coeffs(c):
    return FitCoefficients(c=tuple(c), sigma=0.0, source="refit")


def dedp_series_oracle(a: float, K: float, c, V0: float = 1.0) -> float:
    """(dE/da)/(dP/da) from term-by-term analytic derivatives of the series."""
    de_da = -V0 * sum(i * c[i] * K**i / a ** (i + 1) for i in range(1, 6))
    dp_da = -V0 * sum(i * (i + 1) * c[i] * K**i / a ** (i + 2) for i in range(1, 6))
    return de_da / dp_da


class TestPressure1d:
    def test_null_series(self):
        assert pressure_1d(1.0, 1.0, ZERO_FIT, 1.0) == 0.0

    def test_hand_value_at_two_k(self, hydrogen_scale):
        K, V0, _ = hydrogen_scale
        a = 2.0 * K
        by_hand = (C[1] / 2 + 2 * C[2] / 4 + 3 * C[3] / 8 + 4 * C[4] / 16 + 5 * C[5] / 32)
        assert pressure_1d(a, K, PAPER_FIT, V0) * a / V0 == pytest.approx(by_hand, rel=1e-12)

    def test_matches_central_difference(self, hydrogen_scale):
        K, V0, _ = hydrogen_scale
        a = 3.0 * K
        energy = lambda w: V0 * eval_fit(PAPER_FIT, w / K)
        fd = -central_difference(energy, a, 1e-6 * a)
        assert pressure_1d(a, K, PAPER_FIT, V0) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("a,K,V0", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)])
    def test_domain(self, a, K, V0):
        with pytest.raises(DomainError):
            pressure_1d(a, K, PAPER_FIT, V0)

    def test_overflow_raises(self):
        with pytest.raises(NumericalError):
            pressure_1d(1e-200, 1.0, PAPER_FIT, 1.0)


class TestDenergyDpressure:
    def test_small_k_limits(self):
        # K -> 0: the consistent form tends to a/2, the printed one to a/4.
        assert denergy_dpressure(1.0, 1e-9, PAPER_FIT, "consistent") == pytest.approx(0.5, rel=1e-5)
        assert denergy_dpressure(1.0, 1e-9, PAPER_FIT, "printed") == pytest.approx(0.25, rel=1e-5)

    def test_small_width_limit_both_variants(self):
        a = 1e-9
        for variant in ("consistent", "printed"):
            assert denergy_dpressure(a, 1.0, PAPER_FIT, variant) == pytest.approx(a / 6, rel=1e-5)

    def test_identity_against_series_oracle(self):
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 300:
            t = float(rng.uniform(0.05, 10.0))
            if abs(t - t_pole) < 0.01 * t_pole:
                continue
            checked += 1
            lhs = denergy_dpressure(t, 1.0, PAPER_FIT, "consistent")
            rhs = dedp_series_oracle(t, 1.0, C)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pole_raises(self):
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        with pytest.raises(PoleSingularity):
            denergy_dpressure(t_pole, 1.0, PAPER_FIT, "consistent")

    def test_zero_coefficients_pole(self):
        with pytest.raises(PoleSingularity):
            denergy_dpressure(1.0, 1.0, ZERO_FIT)

    def test_bad_variant(self):
        with pytest.raises(DomainError):
            denergy_dpressure(1.0, 1.0, PAPER_FIT, "extrapolated")

    def test_overflow_raises(self):
        with pytest.raises(NumericalError):
            denergy_dpressure(1e100, 1.0, PAPER_FIT)


class TestPressureColumns:
    @pytest.mark.parametrize("variant", ["consistent", "printed"])
    def test_match_scalar(self, variant, hydrogen_scale):
        K, V0, _ = hydrogen_scale
        a = np.geomspace(0.01, 1e3, 500) * K
        ones = np.ones_like(a)
        p, dedp, near = pressure_columns(a, K * ones, PAPER_FIT, V0 * ones, variant)
        assert not near.any()
        for i, ai in enumerate(a.tolist()):
            assert p[i] == pressure_1d(ai, K, PAPER_FIT, V0)
            assert dedp[i] == denergy_dpressure(ai, K, PAPER_FIT, variant)

    def test_within_1e9_of_the_pole(self):
        # Compensated sums keep what math.fsum gives; a plain sum is 3e-7 off
        # at 1e-9 relative distance and 3e-5 off at 1e-11.
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        t = t_pole * (1.0 + np.array([-1e-9, -1e-10, -1e-11, 1e-11, 1e-10, 1e-9]))
        ones = np.ones_like(t)
        _, dedp, near = pressure_columns(t, ones, PAPER_FIT, ones)
        assert not near.any()
        for ti, got in zip(t.tolist(), dedp.tolist()):
            assert got == denergy_dpressure(ti, 1.0, PAPER_FIT)

    def test_pole_is_flagged(self):
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        t = np.array([1.0, t_pole, 2.0])
        ones = np.ones_like(t)
        _, dedp, near = pressure_columns(t, ones, PAPER_FIT, ones)
        assert near.tolist() == [False, True, False]
        assert math.isnan(dedp[1]) and np.isfinite(dedp[[0, 2]]).all()

    @pytest.mark.parametrize("t", [1e-200, 1e100])
    def test_overflow_raises(self, t):
        ones = np.ones(2)
        with pytest.raises(NumericalError):
            pressure_columns(np.array([1.0, t]), ones, PAPER_FIT, ones)


class TestSmallWidthExpansion:
    def test_agrees_with_consistent_form(self):
        a, K = 0.01, 1.0
        full = denergy_dpressure(a, K, PAPER_FIT, "consistent")
        approx = expansion_small_width(a, K, PAPER_FIT)
        assert abs(approx - full) / abs(full) <= 0.01

    def test_error_shrinks_better_than_linearly(self):
        err = lambda a: abs(
            expansion_small_width(a, 1.0, PAPER_FIT)
            - denergy_dpressure(a, 1.0, PAPER_FIT, "consistent")
        )
        assert err(0.01) / err(0.001) >= 30.0

    def test_leading_term(self):
        a = 1e-12
        assert expansion_small_width(a, 1.0, PAPER_FIT) == pytest.approx(a / 6, rel=1e-9)

    def test_zero_at_published_critical_width(self):
        K = 1.0
        a0 = -7.5 * (C[5] / C[4]) * K
        assert a0 == pytest.approx(2.476601 * K, rel=1e-5)
        assert expansion_small_width(a0, K, PAPER_FIT) == pytest.approx(0.0, abs=1e-15 * a0)

    def test_requires_c5(self):
        with pytest.raises(DomainError):
            expansion_small_width(1.0, 1.0, make_coeffs((0, 1, 1, 1, 1, 0)))


class TestSmallKExpansion:
    def test_zero_k_gives_half_width(self):
        for variant in ("consistent", "printed"):
            assert expansion_small_k(2.0, 0.0, PAPER_FIT, variant) == 1.0

    def test_consistent_matches_full_form(self):
        # For the published set c2/c1 ~ 125, so the series only converges
        # well below K/a ~ 0.008; for a mild set it holds at K/a = 0.01.
        mild = make_coeffs((1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        full = denergy_dpressure(1.0, 0.01, mild, "consistent")
        approx = expansion_small_k(1.0, 0.01, mild, "consistent")
        assert abs(approx - full) / abs(full) <= 0.01
        full_p = denergy_dpressure(1.0, 1e-5, PAPER_FIT, "consistent")
        approx_p = expansion_small_k(1.0, 1e-5, PAPER_FIT, "consistent")
        assert abs(approx_p - full_p) / abs(full_p) <= 1e-6

    def test_variant_difference_term(self):
        a, K = 1.7, 0.3
        delta = expansion_small_k(a, K, PAPER_FIT, "printed") - expansion_small_k(
            a, K, PAPER_FIT, "consistent"
        )
        expected = 3 * K * K / (2 * a * C[1] ** 2) * (C[1] * C[3] - C[3] ** 2)
        assert delta == pytest.approx(expected, rel=1e-12)

    def test_requires_c1(self):
        with pytest.raises(DomainError):
            expansion_small_k(1.0, 0.1, make_coeffs((0, 0, 1, 1, 1, 1)))


class TestCriticalWidth:
    def test_paper_method(self):
        report = critical_width(2.0, PAPER_FIT, "paper")
        assert report.a0_paper == pytest.approx(2.476601 * 2.0, rel=1e-5)
        assert report.a0_numeric is None
        assert report.pole_location is None
        assert report.classification_width_used == "paper"

    def test_numeric_method_against_eigenvalue_oracle(self):
        report = critical_width(1.0, PAPER_FIT, "numeric")
        numer = [C[1], 2 * C[2], 3 * C[3], 4 * C[4], 5 * C[5]]
        denom = [C[1], 3 * C[2], 6 * C[3], 10 * C[4], 15 * C[5]]

        def smallest_positive_real(poly):
            roots = np.roots(poly)
            real = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
            return min(real)

        assert report.a0_numeric == pytest.approx(smallest_positive_real(numer), abs=1e-9)
        assert report.pole_location == pytest.approx(smallest_positive_real(denom), abs=1e-9)
        assert report.a0_numeric == pytest.approx(0.89, abs=0.01)
        assert report.pole_location == pytest.approx(1.11, abs=0.01)
        assert report.classification_width_used == "numeric"

    def test_paper_width_scale_invariant(self):
        base = critical_width(1.0, PAPER_FIT, "paper").a0_paper
        for lam in (0.5, 3.0, 100.0):
            scaled = make_coeffs(tuple(lam * ck for ck in C))
            assert critical_width(1.0, scaled, "paper").a0_paper == pytest.approx(
                base, rel=1e-12
            )

    def test_no_root(self):
        with pytest.raises(NoRoot):
            critical_width(1.0, make_coeffs((0, 0, 0, 0, 0, 1.0)), "numeric")

    def test_paper_needs_c4(self):
        with pytest.raises(DomainError):
            critical_width(1.0, make_coeffs((1, 1, 1, 1, 0, 1)), "paper")

    def test_bad_method(self):
        with pytest.raises(DomainError):
            critical_width(1.0, PAPER_FIT, "guess")


class TestClassifyResponse:
    def test_hydrogen_ionizes(self, hydrogen_cfg, hydrogen_scale):
        K, _, _ = hydrogen_scale
        report = classify_response(hydrogen_cfg.half_width, K, PAPER_FIT)
        assert report.outcome is Response.IONIZES
        assert not report.at_boundary
        assert report.critical_half_width == pytest.approx(1.31056e-10, rel=2e-3)

    def test_wide_well_pushed_deeper(self, hydrogen_scale):
        K, _, _ = hydrogen_scale
        a0 = critical_width(K, PAPER_FIT, "paper").a0_paper
        report = classify_response(10 * a0, K, PAPER_FIT)
        assert report.outcome is Response.PUSHED_DEEPER
        assert not report.at_boundary

    def test_exact_tie(self, hydrogen_scale):
        K, _, _ = hydrogen_scale
        a0 = critical_width(K, PAPER_FIT, "paper").a0_paper
        report = classify_response(a0, K, PAPER_FIT)
        assert report.outcome is Response.PUSHED_DEEPER
        assert report.at_boundary


class TestPressureProfile:
    def test_regular_point(self, hydrogen_scale):
        K, V0, _ = hydrogen_scale
        a = 3.0 * K
        profile = pressure_profile(a, K, PAPER_FIT, V0)
        assert profile.pressure == pressure_1d(a, K, PAPER_FIT, V0)
        assert profile.dedp == denergy_dpressure(a, K, PAPER_FIT, "consistent")
        assert profile.dedp_printed == denergy_dpressure(a, K, PAPER_FIT, "printed")
        assert not profile.near_pole
        assert math.isfinite(profile.pressure)

    def test_pole_point_flagged(self, hydrogen_scale):
        K, V0, _ = hydrogen_scale
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        profile = pressure_profile(t_pole * K, K, PAPER_FIT, V0)
        assert profile.near_pole
        assert math.isnan(profile.dedp)
        assert math.isfinite(profile.pressure)
