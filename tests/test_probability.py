import math

import numpy as np
import pytest

from finwell import (
    CONSTANTS,
    DomainError,
    FitCoefficients,
    FitOutOfRange,
    PAPER_FIT,
    PoleSingularity,
    ProbabilityMethod,
    ProbabilityResult,
    WellConfig,
    beta_from_energy,
    beta_from_fit,
    critical_width,
    energy_exact,
    eval_fit,
    normalization_constant,
    pressure_1d,
    probability_columns,
    probability_interval,
    probability_pressure_derivative,
    probability_small_beta,
    wavefunction,
    well_strength,
)

from oracles import adaptive_simpson, interval_probability_oracle, normalization_oracle

EPS = 2.0 ** -52
# 2 a beta from the Taylor band through the sinh/exp switch at 700 up to 1e4
LARGE_Z = [1e-5, 1e-3, 0.5, 10.0, 200.0, 699.0, 700.0, 701.0, 710.0, 712.0, 1400.0, 1e4]


def z_rtol(z: float) -> float:
    # exp(z g - z) inherits the rounding of z*g: relative error ~ z eps
    return 8 * EPS * max(1.0, z)


def density(norm):
    return lambda x: wavefunction(x, norm) ** 2


class TestBetaFromEnergy:
    def test_top_of_well(self):
        assert beta_from_energy(1e-18, 1e-30, 1e-18) == 0.0

    def test_bottom_of_well_reciprocal_k(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        assert beta_from_energy(0.0, m, V0) == pytest.approx(1.0 / K, rel=1e-12)

    def test_hydrogen_ground_state(self, hydrogen_cfg, hydrogen_scale):
        K, V0, _ = hydrogen_scale
        state = energy_exact(hydrogen_cfg)
        beta = beta_from_energy(state.energy, hydrogen_cfg.mass, V0)
        assert beta == pytest.approx(math.sqrt(1 - state.energy / V0) / K, rel=1e-10)

    @pytest.mark.parametrize("E", [-1e-20, 1.1e-18])
    def test_out_of_band(self, E):
        with pytest.raises(DomainError):
            beta_from_energy(E, 1e-30, 1e-18)


class TestBetaFromFit:
    def test_two_k_value(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        beta = beta_from_fit(2 * K, K, PAPER_FIT, m, V0)
        assert beta * K == pytest.approx(math.sqrt(1 - 0.26515315625), rel=1e-9)

    def test_zero_coefficients(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        zero = FitCoefficients(c=(0.0,) * 6, sigma=0.0, source="refit")
        assert beta_from_fit(1.7 * K, K, zero, m, V0) == pytest.approx(1.0 / K, rel=1e-12)

    def test_out_of_range_raises(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        runaway = FitCoefficients(c=(2.0, 0, 0, 0, 0, 0), sigma=0.0, source="refit")
        with pytest.raises(FitOutOfRange):
            beta_from_fit(2 * K, K, runaway, m, V0)

    def test_published_set_far_below_range_stays_positive(self, hydrogen_scale):
        # At a = 0.1 K the series extrapolates to a hugely *negative* E/V0,
        # so the bracket stays positive and beta is just very large.
        K, V0, m = hydrogen_scale
        beta = beta_from_fit(0.1 * K, K, PAPER_FIT, m, V0)
        bracket = 1.0 - eval_fit(PAPER_FIT, 0.1)
        assert bracket > 0
        assert beta == pytest.approx(math.sqrt(bracket) / K, rel=1e-9)


class TestNormalization:
    def test_defining_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = float(rng.uniform(0.3, 4.0))
            beta = float(rng.uniform(0.0, 10.0)) / a
            norm = normalization_constant(a, beta)
            z = 2 * a * beta
            bracket = 2.0 if z == 0 else 1.0 + math.sinh(z) / z
            assert 4 * norm.C**2 * a * bracket == pytest.approx(1.0, rel=1e-12)

    def test_quadrature_normalizes_to_one(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            a = float(rng.uniform(0.3, 4.0))
            beta = float(rng.uniform(0.0, 10.0)) / a
            norm = normalization_constant(a, beta)
            integral = adaptive_simpson(density(norm), -a, a, tol=1e-12)
            assert abs(integral - 1.0) <= 1e-10

    def test_zero_beta_closed_form(self):
        a = 1.7
        norm = normalization_constant(a, 0.0)
        assert norm.C == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * a)), rel=1e-14)

    def test_doubling_width_at_zero_beta(self):
        c1 = normalization_constant(1.0, 0.0).C
        c2 = normalization_constant(2.0, 0.0).C
        assert c1 / c2 == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            normalization_constant(0.0, 1.0)
        with pytest.raises(DomainError):
            normalization_constant(1.0, -1.0)


class TestWavefunction:
    def test_center_value(self):
        norm = normalization_constant(1.0, 2.0)
        assert wavefunction(0.0, norm) == 2 * norm.C

    def test_even_symmetry(self):
        norm = normalization_constant(1.3, 1.7)
        assert wavefunction(1.3, norm) == wavefunction(-1.3, norm)

    def test_flat_at_zero_beta(self):
        norm = normalization_constant(2.0, 0.0)
        values = {wavefunction(x, norm) for x in (-1.5, 0.0, 0.4, 2.0)}
        assert len(values) == 1

    def test_outside_well(self):
        norm = normalization_constant(1.0, 1.0)
        with pytest.raises(DomainError):
            wavefunction(1.0001, norm)


class TestProbabilityInterval:
    def test_endpoints(self):
        assert probability_interval(1.0, 2.0, 1.0).probability == 1.0
        assert probability_interval(1.0, 2.0, 0.0).probability == 0.0

    def test_zero_beta_is_gamma(self):
        for gamma in (0.0, 0.25, 0.8, 1.0):
            assert probability_interval(3.0, 0.0, gamma).probability == pytest.approx(
                gamma, rel=1e-14
            )

    def test_matches_quadrature(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            a = float(rng.uniform(0.3, 4.0))
            beta = float(rng.uniform(0.0, 10.0)) / a
            gamma = float(rng.uniform(0.0, 1.0))
            norm = normalization_constant(a, beta)
            expected = adaptive_simpson(density(norm), -gamma * a, gamma * a, tol=1e-12)
            got = probability_interval(a, beta, gamma)
            assert abs(got.probability - expected) <= 1e-10
            assert got.method is ProbabilityMethod.CLOSED_FORM
            assert 0.0 <= got.probability <= 1.0

    def test_monotone_in_gamma(self):
        gammas = np.linspace(0.0, 1.0, 101)
        values = [probability_interval(1.0, 2.5, float(g)).probability for g in gammas]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("gamma", [-0.1, 1.1])
    def test_gamma_domain(self, gamma):
        with pytest.raises(DomainError):
            probability_interval(1.0, 1.0, gamma)


class TestOverflowSafeForms:
    @pytest.mark.parametrize("z", LARGE_Z)
    def test_interval_against_decimal_oracle(self, z):
        for gamma in (0.0, 0.1, 0.37, 0.5, 0.9, 0.999, 1.0):
            got = probability_interval(1.0, z / 2.0, gamma).probability
            want = interval_probability_oracle(z, gamma)
            assert abs(got - want) <= z_rtol(z) * want
            assert 0.0 <= got <= gamma

    @pytest.mark.parametrize("z", LARGE_Z)
    def test_exact_endpoints(self, z):
        assert probability_interval(1.0, z / 2.0, 0.0).probability == 0.0
        assert probability_interval(1.0, z / 2.0, 1.0).probability == 1.0

    def test_published_overflow_case(self):
        r = probability_interval(1.0, 356.0, 0.5).probability
        assert r == pytest.approx(interval_probability_oracle(712.0, 0.5), rel=1e-13)

    @pytest.mark.parametrize("z", LARGE_Z)
    def test_normalization_against_decimal_oracle(self, z):
        for a in (1e-10, 1.0):
            got = normalization_constant(a, z / (2.0 * a)).C
            assert got == pytest.approx(normalization_oracle(a, z / (2.0 * a)), rel=z_rtol(z))

    def test_columns_match_scalar(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        a = np.geomspace(0.7, 2e4, 400) * K
        rng = np.random.default_rng(5)
        gamma = rng.uniform(0.0, 1.0, a.size)
        gamma[:2] = (0.0, 1.0)
        ones = np.ones_like(a)
        R, out = probability_columns(a, K * ones, PAPER_FIT, m * ones, V0 * ones, gamma)
        assert not out.any()
        for i, (ai, gi) in enumerate(zip(a.tolist(), gamma.tolist())):
            beta = beta_from_fit(ai, K, PAPER_FIT, m, V0)
            want = probability_interval(ai, beta, gi).probability
            assert abs(R[i] - want) <= 8 * math.ulp(want), (ai / K, gi)
        assert R[0] == 0.0 and R[1] == 1.0

    def test_columns_flag_out_of_range(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        above_one = FitCoefficients(c=(2.0, 0, 0, 0, 0, 0), sigma=0.0, source="refit")
        ones = np.ones(3)
        R, out = probability_columns(ones * K, ones * K, above_one, ones * m, ones * V0, ones * 0.5)
        assert out.all()
        assert np.isnan(R).all()

    def test_columns_gamma_domain(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        ones = np.ones(2)
        with pytest.raises(DomainError, match="gamma"):
            probability_columns(ones * K, ones * K, PAPER_FIT, ones * m, ones * V0,
                                np.array([0.5, 1.5]))


class TestProbabilitySmallBeta:
    def test_zero_beta(self):
        assert probability_small_beta(1.0, 0.0, 0.37).probability == pytest.approx(0.37)

    def test_full_interval_exact(self):
        result = probability_small_beta(1.0, 0.5, 1.0)
        assert result.probability == 1.0
        assert result.method is ProbabilityMethod.SMALL_BETA

    def test_close_to_closed_form(self):
        got = probability_small_beta(1.0, 0.01, 0.5).probability
        want = probability_interval(1.0, 0.01, 0.5).probability
        assert abs(got - want) <= 1e-7

    def test_error_scales_fourth_order(self):
        gamma = 0.5

        def err(ab):
            return abs(
                probability_small_beta(1.0, ab, gamma).probability
                - probability_interval(1.0, ab, gamma).probability
            )

        ratio = err(0.02) / err(0.01)
        assert 12.0 <= ratio <= 20.0


class TestQuadratureMethodTag:
    def test_oracle_results_carry_the_tag(self):
        # the quadrature member exists for interchange with test oracles
        norm = normalization_constant(1.0, 1.0)
        value = adaptive_simpson(density(norm), -0.5, 0.5, tol=1e-12)
        result = ProbabilityResult(
            probability=value, gamma=0.5, method=ProbabilityMethod.QUADRATURE
        )
        assert 0.0 <= result.probability <= 1.0


class TestPressureDerivative:
    def test_constant_maps_are_flat(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        cfg = WellConfig(2 * K, V0, m)
        assert probability_pressure_derivative(cfg, PAPER_FIT, 1.0) == 0.0
        assert probability_pressure_derivative(cfg, PAPER_FIT, 0.0) == 0.0

    def test_step_halving_stability(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        cfg = WellConfig(2 * K, V0, m)
        gamma = 0.5
        got = probability_pressure_derivative(cfg, PAPER_FIT, gamma)

        def manual(h):
            def prob(w):
                beta = beta_from_fit(w, K, PAPER_FIT, m, V0)
                return probability_interval(w, beta, gamma).probability

            def pres(w):
                return pressure_1d(w, K, PAPER_FIT, V0)

            a = cfg.half_width
            return (prob(a + h) - prob(a - h)) / (pres(a + h) - pres(a - h))

        halved = manual(0.5e-6 * cfg.half_width)
        assert abs(got - halved) / abs(got) <= 1e-4

    def test_pole_raises(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        cfg = WellConfig(t_pole * K, V0, m)
        with pytest.raises(PoleSingularity):
            probability_pressure_derivative(cfg, PAPER_FIT, 0.5)

    def test_fit_out_of_range_propagates(self, hydrogen_scale):
        # c1 != 0 keeps dP/da alive so the failure comes from the bracket
        K, V0, m = hydrogen_scale
        runaway = FitCoefficients(c=(2.0, 0.1, 0, 0, 0, 0), sigma=0.0, source="refit")
        cfg = WellConfig(2 * K, V0, m)
        with pytest.raises(FitOutOfRange):
            probability_pressure_derivative(cfg, runaway, 0.5)

    def test_gamma_domain(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        cfg = WellConfig(2 * K, V0, m)
        with pytest.raises(DomainError):
            probability_pressure_derivative(cfg, PAPER_FIT, 1.5)
