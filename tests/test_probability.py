import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finwell import (
    CONSTANTS,
    DomainError,
    FitCoefficients,
    FitOutOfRange,
    NumericalError,
    PAPER_FIT,
    PoleSingularity,
    WellConfig,
    beta_from_fit,
    critical_width,
    denergy_dpressure,
    eval_fit,
    pressure_1d,
    probability_columns,
    probability_interval,
    probability_pressure_derivative,
    well_strength,
)

from finwell.fitseries import refit
from finwell.probability import _EXP_Z
from oracles import (
    adaptive_simpson,
    interval_probability_oracle,
    pressure_derivative_oracle,
)

EPS = 2.0 ** -52
# 2 a beta from 1e-5 through the sinh/exp switch at 700 up to 1e8, where the
# oracle's sinh(z) once raised decimal.Overflow
LARGE_Z = [1e-5, 1e-3, 0.5, 10.0, 200.0, 699.0, 700.0, 701.0, 710.0, 712.0, 1400.0, 1e4, 1e8]
# (2 a beta, gamma) in the exp(-z) form with z (1 - gamma) small; the first is
# the 26 m row of a hydrogen-depth sweep at gamma = 1 - 1e-13.
EXP_NEAR_ONE = [(982965040428.7626, 0.9999999999999), (1e4, 0.999999), (1e6, 0.99999)]


# R against the decimal oracle, in eps times s, where s is the size of the
# exponent whose rounding R inherits: max(1, z gamma) in the sinhc form (z
# gamma is rounded), max(1, z (1 - gamma)) in the exp(-z) form above z = 700,
# and relative to R or, below the normal range, to the least normal double
# (README's accuracy table).
INTERVAL_EPS = 4


def z_rtol(z: float) -> float:
    # exp(z g - z) inherits the rounding of z*g: relative error ~ z eps
    return 8 * EPS * max(1.0, z)


def _q_oracle(w: float) -> float:
    # (w cosh w - sinh w)/(w^2 (w + sinh w)) for the condition number only
    if w < 1e-3:
        return 1.0 / 6.0
    if w > 700.0:
        return (w - 1.0) / (w * w)
    return (w * math.cosh(w) - math.sinh(w)) / (w * w * (w + math.sinh(w)))


def drdp_rtol(a, K, coeffs, m, V0, gamma):
    """8 eps max(1, z) (k_gamma + k_pole) k_z: the relative error bound of dR/dP.

    k_pole is the condition of the dE/dP denominator, k_gamma that of
    gamma^2 Q(gamma z) - Q(z), and k_z that of beta^2 + a m P/hbar^2, which
    cancels where z' = 0, a zero of dR/dP (a/K = 0.78 for the published fit).
    """
    c, t, hbar = coeffs.c, a / K, CONSTANTS.hbar
    beta = beta_from_fit(a, K, coeffs, m, V0)
    z = 2.0 * a * beta
    den_terms = (15 * c[5], 10 * c[4] * t, 6 * c[3] * t * t, 3 * c[2] * t ** 3, c[1] * t ** 4)
    k_pole = max(map(abs, den_terms)) / abs(math.fsum(den_terms))
    q_g, q_z = gamma * gamma * _q_oracle(gamma * z), _q_oracle(z)
    k_gamma = (q_g + q_z) / abs(q_g - q_z)
    s1, s2 = beta * beta, a * m * pressure_1d(a, K, coeffs, V0) / hbar ** 2
    k_z = (abs(s1) + abs(s2)) / abs(s1 + s2)
    return 8 * EPS * max(1.0, z) * (k_gamma + k_pole) * k_z


def quadrature_probability(a, beta, gamma):
    """R by quadrature of the unnormalized in-well density cosh^2(beta x).

    The integral over |x| <= gamma a over that over |x| <= a, each to an
    absolute tolerance of 1e-12 of the largest value, cosh^2(beta a).
    """
    density = lambda x: math.cosh(beta * x) ** 2
    tol = 1e-12 * density(a)
    return (adaptive_simpson(density, -gamma * a, gamma * a, tol=tol)
            / adaptive_simpson(density, -a, a, tol=tol))


def small_beta_expansion(ab, gamma):
    """The paper's small-beta expansion R = gamma (1 + (a beta)^2 (gamma^2 - 1)/3)."""
    return gamma * (1.0 + ab * ab * (gamma * gamma - 1.0) / 3.0)


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

    @pytest.mark.parametrize("bad,message", [
        ({"m": -1.0}, "m must be positive and finite, got -1.0"),  # was a math domain error
        ({"m": math.nan}, "m must be positive and finite, got nan"),  # returned nan
        ({"V0": math.inf}, "V0 must be positive and finite, got inf"),  # returned inf
    ])
    def test_non_positive_or_non_finite(self, hydrogen_scale, bad, message):
        K, V0, m = hydrogen_scale
        with pytest.raises(DomainError, match=message):
            beta_from_fit(2 * K, K, PAPER_FIT, **{"m": m, "V0": V0, **bad})

    def test_overflowing_series_raises(self):
        # a/K = 1e-80 overflows the series; beta used to come back as inf.
        with pytest.raises(NumericalError, match="overflows"):
            beta_from_fit(1e-80, 1.0, PAPER_FIT, 9.1e-31, 1e-18)

    def test_overflowing_2_m_V0_raises(self):
        # 2 m V0 overflows; beta used to come back as inf.
        with pytest.raises(NumericalError, match="beta overflows"):
            beta_from_fit(2.0, 1.0, PAPER_FIT, 1e300, 1e300)

    def test_published_set_far_below_range_stays_positive(self, hydrogen_scale):
        # At a = 0.1 K the series extrapolates to a hugely *negative* E/V0,
        # so the bracket stays positive and beta is just very large.
        K, V0, m = hydrogen_scale
        beta = beta_from_fit(0.1 * K, K, PAPER_FIT, m, V0)
        bracket = 1.0 - eval_fit(PAPER_FIT, 0.1)
        assert bracket > 0
        assert beta == pytest.approx(math.sqrt(bracket) / K, rel=1e-9)


class TestProbabilityInterval:
    def test_endpoints(self):
        assert probability_interval(1.0, 2.0, 1.0).probability == 1.0
        assert probability_interval(1.0, 2.0, 0.0).probability == 0.0

    def test_zero_beta_is_gamma(self, hydrogen_scale):
        # z = 0 exactly: in the scalar call, and in the columns through a fit
        # of E/V0 = 1, whose bracket 1 - E/V0 is 0.
        K, V0, m = hydrogen_scale
        gammas = (0.0, 0.25, 0.8, 1e-310, 1.0 - 2.0 ** -53, 1.0)
        for gamma in gammas:
            assert probability_interval(3.0, 0.0, gamma).probability == gamma
        top = FitCoefficients(c=(1.0, 0, 0, 0, 0, 0), sigma=0.0, source="refit")
        ones = np.ones(len(gammas))
        R, out, overflow = probability_columns(
            ones * K, ones * K, top, ones * m, ones * V0, np.array(gammas))
        assert not (out | overflow).any()
        assert R.tolist() == list(gammas)

    def test_subnormal_z_gamma(self, hydrogen_scale):
        # z = 0.01 with z gamma subnormal and R normal: R was 19 ulp off, from
        # z gamma + sinh(z gamma) with its low bits lost below the normal range.
        # Here (z gamma)^2 < 1e-600, so gamma 2 z/(z + sinh z) is R to double
        # precision.
        def want(z, gamma):
            with localcontext() as ctx:
                ctx.prec = 60
                zd = Decimal(z)
                sinh = (zd.exp() - (-zd).exp()) / 2
                return float(Decimal(gamma) * 2 * zd / (zd + sinh))

        gamma = 3e-308
        got = probability_interval(1.0, 0.005, gamma).probability
        assert abs(got - want(0.01, gamma)) <= 2 * math.ulp(want(0.01, gamma))
        # A zero fit puts beta at 1/K, so 2 a beta is near 0.01 at a = K/200.
        K, V0, m = hydrogen_scale
        flat = FitCoefficients(c=(0.0,) * 6, sigma=0.0, source="refit")
        R, _, _ = probability_columns(
            np.array([K / 200]), np.array([K]), flat, np.array([m]), np.array([V0]),
            np.array([gamma]))
        z = 2.0 * (K / 200) * beta_from_fit(K / 200, K, flat, m, V0)
        assert abs(R[0] - want(z, gamma)) <= 2 * math.ulp(want(z, gamma))

    def test_matches_quadrature(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            a = float(rng.uniform(0.3, 4.0))
            beta = float(rng.uniform(0.0, 10.0)) / a
            gamma = float(rng.uniform(0.0, 1.0))
            expected = quadrature_probability(a, beta, gamma)
            got = probability_interval(a, beta, gamma)
            assert abs(got.probability - expected) <= 1e-10
            assert 0.0 <= got.probability <= 1.0

    def test_monotone_in_gamma(self):
        gammas = np.linspace(0.0, 1.0, 101)
        values = [probability_interval(1.0, 2.5, float(g)).probability for g in gammas]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("gamma", [-0.1, 1.1])
    def test_gamma_domain(self, gamma):
        with pytest.raises(DomainError):
            probability_interval(1.0, 1.0, gamma)


class TestNonFiniteInputs:
    # Each of these returned nan or -inf, or raised a raw Python error.
    @pytest.mark.parametrize("call", [
        lambda: probability_interval(1.0, math.nan, 0.5),
        lambda: probability_interval(math.inf, 1.0, 0.5),
        lambda: probability_interval(1.0, -math.inf, 0.5),
        lambda: probability_interval(math.nan, 1.0, 0.5),
    ])
    def test_non_finite_input_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match="finite"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: probability_interval(1.0, 1e308, 0.5),
        lambda: probability_interval(1e308, 1.0, 0.5),
        lambda: probability_interval(1e200, 1e200, 0.5),
    ])
    def test_overflowing_2_a_beta_is_a_numerical_error(self, call):
        with pytest.raises(NumericalError, match="overflows"):
            call()

    def test_small_beta_square_overflow(self):
        # (a beta)^2 overflows, so the small-beta expansion has no value here;
        # the closed form never squares a beta and stays exact.
        assert small_beta_expansion(1e160, 0.5) == -math.inf
        assert probability_interval(1.0, 1e160, 0.5).probability == 0.0
        assert probability_interval(1.0, 1e160, 1.0).probability == 1.0

    def test_normalization_underflows_where_2z_overflows(self):
        # 2 a beta = 1.2e308 is finite, twice it is not: in the exp(-z) form
        # the normalization z exp(-z) underflows to 0 and expm1(-2z) sees -inf.
        for gamma, want in ((0.0, 0.0), (0.5, 0.0), (1.0 - 1e-16, 0.0), (1.0, 1.0)):
            assert probability_interval(1.0, 6e307, gamma).probability == want, gamma


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

    @pytest.mark.parametrize("z, gamma", EXP_NEAR_ONE)
    def test_exp_form_near_gamma_one(self, z, gamma):
        # The exponent z gamma - z carried an error of ulp(z): the first case
        # was 6e-5 off.  z (gamma - 1) leaves z (1 - gamma) eps.
        want = interval_probability_oracle(z, gamma)
        got = probability_interval(0.5, z, gamma).probability
        assert abs(got - want) <= 8 * EPS * max(1.0, z * (1.0 - gamma)) * want

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-300.0, 8.0).map(lambda e: 10.0 ** e), st.floats(0.0, 1.0))
    # The oracle was wrong next to z = 1e-60 and where z gamma is tiny; the
    # third R is subnormal, the fourth takes the exp(-z) form next to gamma = 1.
    @example(1e-60, 0.45)
    @example(3.8245654635182275e-67, 4.701984665765007e-300)
    @example(738.7487369724677, 0.04092295522029982)
    @example(1e8, 1.0 - 1e-13)
    def test_interval_accuracy(self, z, gamma):
        got = probability_interval(0.5, z, gamma).probability  # 2 a beta is z exactly
        want = interval_probability_oracle(z, gamma)
        s = max(1.0, z * gamma) if z <= _EXP_Z else max(1.0, z * (1.0 - gamma))
        assert abs(got - want) <= INTERVAL_EPS * EPS * s * max(want, sys.float_info.min)

    def test_published_overflow_case(self):
        r = probability_interval(1.0, 356.0, 0.5).probability
        assert r == pytest.approx(interval_probability_oracle(712.0, 0.5), rel=1e-13)

    def test_columns_match_scalar(self, hydrogen_scale):
        # The published fit over a/K = 0.7..2e4 takes the sinh and exp forms.
        # A bracket of 1e-12 (c0 = 1 - 1e-12) puts 2 a beta at 2e-6 a/K, so
        # one call over a/K = 1..1e10 spans 2 a beta below 1e-4, from 1e-4 to
        # 700, and above 700; every seventh row there has 2 m V0 overflow, is
        # flagged and must be NaN.
        K, V0, m = hydrogen_scale
        rng = np.random.default_rng(5)
        near_one = FitCoefficients(c=(1.0 - 1e-12, 0, 0, 0, 0, 0), sigma=0.0, source="refit")
        for coeffs, t, every in ((PAPER_FIT, (0.7, 2e4), 0), (near_one, (1.0, 1e10), 7)):
            a = np.geomspace(*t, 400) * K
            gamma = rng.uniform(0.0, 1.0, a.size)
            gamma[:2] = (0.0, 1.0)
            flagged = np.arange(a.size) % every == 3 if every else np.zeros(a.size, bool)
            big = np.where(flagged, 1e300, 1.0)
            ones = np.ones_like(a)
            R, out, overflow = probability_columns(
                a, K * ones, coeffs, m * big, V0 * big, gamma)
            assert not out.any()
            assert (overflow == flagged).all() and (np.isnan(R) == flagged).all()
            ranges = set()
            for i, (ai, gi) in enumerate(zip(a.tolist(), gamma.tolist())):
                if flagged[i]:
                    continue
                beta = beta_from_fit(ai, K, coeffs, m, V0)
                z = 2.0 * ai * beta
                ranges.add("below 1e-4" if z < 1e-4 else "up to 700" if z <= 700.0 else "above 700")
                want = probability_interval(ai, beta, gi).probability
                assert abs(R[i] - want) <= 8 * math.ulp(want), (ai / K, gi)
            assert R[0] == 0.0 and R[1] == 1.0
        assert ranges == {"below 1e-4", "up to 700", "above 700"}  # in the second call

    def test_columns_flag_out_of_range(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        above_one = FitCoefficients(c=(2.0, 0, 0, 0, 0, 0), sigma=0.0, source="refit")
        ones = np.ones(3)
        R, out, _ = probability_columns(ones * K, ones * K, above_one, ones * m, ones * V0, ones * 0.5)
        assert out.all()
        assert np.isnan(R).all()

    def test_columns_flag_overflow(self, hydrogen_scale):
        # The series overflows at a/K = 1e-80 and 2 m V0 at m = V0 = 1e300:
        # those rows are flagged, not raised, and the in-range row is kept.
        K, V0, m = hydrogen_scale
        R, out, overflow = probability_columns(
            np.array([1e-80, 1.0, 2.0]) * K, np.full(3, K), PAPER_FIT,
            np.array([m, 1e300, m]), np.array([V0, 1e300, V0]), np.full(3, 0.5))
        assert out.tolist() == [False, False, False]
        assert overflow.tolist() == [True, True, False]
        assert np.isnan(R[:2]).all()
        want = probability_interval(2.0 * K, beta_from_fit(2.0 * K, K, PAPER_FIT, m, V0), 0.5)
        assert abs(R[2] - want.probability) <= 8 * math.ulp(want.probability)

    def test_columns_gamma_domain(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        ones = np.ones(2)
        with pytest.raises(DomainError, match="gamma"):
            probability_columns(ones * K, ones * K, PAPER_FIT, ones * m, ones * V0,
                                np.array([0.5, 1.5]))


class TestProbabilityProperties:
    @settings(max_examples=200)
    @given(
        st.floats(math.log(1e-6), math.log(1e4)),
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
    )
    def test_bounded_and_monotone_in_gamma(self, log_z, gammas):
        z = math.exp(log_z)
        gamma = sorted(gammas)
        scalar = [probability_interval(1.0, 0.5 * z, g).probability for g in gamma]
        # A zero fit puts beta at sqrt(2 m V0)/hbar = 1/K, so 2 a beta = z at a = z K/2.
        flat = FitCoefficients(c=(0.0,) * 6, sigma=0.0, source="refit")
        K = CONSTANTS.hbar / math.sqrt(2 * CONSTANTS.electron_mass * CONSTANTS.electronvolt)
        ones = np.ones(len(gamma))
        R, out, _ = probability_columns(
            ones * (0.5 * z * K), ones * K, flat,
            ones * CONSTANTS.electron_mass, ones * CONSTANTS.electronvolt, np.array(gamma),
        )
        assert not out.any()
        for values in (scalar, R.tolist()):
            assert all(0.0 <= r <= g for r, g in zip(values, gamma)), (z, values)
            assert all(r1 <= r2 for r1, r2 in zip(values, values[1:])), (z, values)


class TestProbabilitySmallBeta:
    # The closed form against the paper's small-beta expansion, in the test.
    def test_zero_beta(self):
        assert small_beta_expansion(0.0, 0.37) == 0.37
        assert probability_interval(1.0, 0.0, 0.37).probability == pytest.approx(0.37)

    def test_full_interval_exact(self):
        assert small_beta_expansion(0.5, 1.0) == 1.0
        assert probability_interval(1.0, 0.5, 1.0).probability == 1.0

    def test_close_to_closed_form(self):
        got = probability_interval(1.0, 0.01, 0.5).probability
        assert abs(got - small_beta_expansion(0.01, 0.5)) <= 1e-7

    def test_error_scales_fourth_order(self):
        gamma = 0.5

        def err(ab):
            return abs(
                small_beta_expansion(ab, gamma)
                - probability_interval(1.0, ab, gamma).probability
            )

        ratio = err(0.02) / err(0.01)
        assert 12.0 <= ratio <= 20.0


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

    @pytest.mark.parametrize("coeffs", [PAPER_FIT, refit()], ids=["paper", "refit"])
    def test_against_decimal_oracle(self, coeffs):
        # Log-uniform V0 in [1e-3, 1e4] eV, m in [1e-3, 1e3] me and a/K from
        # 0.5 (neither series reaches E/V0 = 1) to 2 a beta = 1e4, across the
        # dE/dP zero and pole, within drdp_rtol.
        rng = np.random.default_rng(8)
        eV, me, hbar = CONSTANTS.electronvolt, CONSTANTS.electron_mass, CONSTANTS.hbar
        c = coeffs.c
        gammas = [0.0, 1.0] + [1.0 - 10.0 ** -k for k in range(1, 16)]
        checked = 0
        for i in range(300):
            V0 = 10.0 ** rng.uniform(-3, 4) * eV
            m = 10.0 ** rng.uniform(-3, 3) * me
            K = hbar / math.sqrt(2.0 * m * V0)
            t = math.exp(rng.uniform(math.log(0.5), math.log(4.9e3)))
            gamma = gammas[i] if i < len(gammas) else float(rng.uniform(0.0, 1.0))
            a = t * K
            got = probability_pressure_derivative(WellConfig(a, V0, m), coeffs, gamma)
            if gamma in (0.0, 1.0):
                assert got == 0.0
                continue
            want = pressure_derivative_oracle(a, K, c, m, V0, gamma, hbar)
            if abs(want) < sys.float_info.min:
                continue  # below the normal range, digits are lost by design
            bound = drdp_rtol(a, K, coeffs, m, V0, gamma)
            assert abs(got - want) <= bound * abs(want), (t, gamma, got, want)
            checked += 1
        assert checked >= 200

    def test_subnormal_r_keeps_its_digits(self, hydrogen_scale):
        # 2 a beta (1 - gamma) of 708 to 745, where R is subnormal or 0 but
        # dR/dP is normal: R's lost digits carried into dR/dP (1.2e-4 off at
        # a/K = 900, gamma = 0.59), and 18 of these cases gave 0.0.
        K, V0, m = hydrogen_scale
        checked = 0
        for t in range(700, 1300, 10):
            for j in range(40):
                gamma = 0.45 + 0.005 * j
                want = pressure_derivative_oracle(t * K, K, PAPER_FIT.c, m, V0, gamma,
                                                  CONSTANTS.hbar)
                if abs(want) < sys.float_info.min:
                    continue
                got = probability_pressure_derivative(WellConfig(t * K, V0, m), PAPER_FIT, gamma)
                bound = drdp_rtol(t * K, K, PAPER_FIT, m, V0, gamma)
                assert abs(got - want) <= bound * abs(want), (t, gamma, got, want)
                checked += 1
        assert checked == 588

    def test_pole_exactly_where_dedp_raises(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        raised = 0
        for t in (t_pole * (1.0 + np.linspace(-1e-9, 1e-9, 2000))).tolist():
            try:
                denergy_dpressure(t * K, K, PAPER_FIT)
                dedp_pole = False
            except PoleSingularity:
                dedp_pole = True
            try:
                probability_pressure_derivative(WellConfig(t * K, V0, m), PAPER_FIT, 0.5)
                drdp_pole = False
            except PoleSingularity:
                drdp_pole = True
            assert drdp_pole == dedp_pole, t
            raised += dedp_pole
        assert 0 < raised < 2000

    def test_wide_wells(self, hydrogen_scale):
        # R underflows long before dP/da does: the true value is an underflowed
        # +0 until the dE/dP terms overflow near a/K = 3e77.
        K, V0, m = hydrogen_scale
        for t in (1e10, 1e62, 1e70, 1e77):
            got = probability_pressure_derivative(WellConfig(t * K, V0, m), PAPER_FIT, 0.5)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0
        for t in (2e77, 1e90):
            with pytest.raises(NumericalError, match="overflows"):
                probability_pressure_derivative(WellConfig(t * K, V0, m), PAPER_FIT, 0.5)
        # 2 m V0 = 1e-314: dP/da underflows to 0.0, so dR/dP has no float value.
        with pytest.raises(NumericalError, match="float range"):
            probability_pressure_derivative(WellConfig(1e200, 5e-158, 1e-157), PAPER_FIT, 0.5)
