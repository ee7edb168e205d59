import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finwell import (
    DomainError,
    FinwellError,
    FitCoefficients,
    FitGrid,
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
from finwell.fitseries import refit
from finwell.pressure import POLE_RTOL, _rational_sums

from oracles import (
    central_difference,
    fit_series_oracle,
    pressure_oracle,
    small_k_oracle,
    small_width_oracle,
    smallest_root_oracle,
)

C = PAPER_FIT.c
EPS = 2.0 ** -52
ZERO_FIT = FitCoefficients(c=(0.0,) * 6, sigma=0.0, source="refit")


def make_coeffs(c):
    return FitCoefficients(c=tuple(c), sigma=0.0, source="refit")


def quartic_fit(roots):
    """Coefficients whose dE/dP numerator is the monic quartic with these
    roots: its ascending coefficients p, formed exactly and rounded, give
    c = (0, p4, p3/2, p2/3, p1/4, p0/5)."""
    p = [Fraction(1)]
    for r in map(Fraction, roots):
        p = [a - r * b for a, b in zip([Fraction(0)] + p, p + [Fraction(0)])]
    p = [float(pk) for pk in p]
    return make_coeffs((0.0, p[4], p[3] / 2, p[2] / 3, p[1] / 4, p[0] / 5))


def rational_polys(c):
    """The dE/dP numerator and (consistent) denominator in t = a/K, ascending."""
    return (
        (5.0 * c[5], 4.0 * c[4], 3.0 * c[3], 2.0 * c[2], c[1]),
        (15.0 * c[5], 10.0 * c[4], 6.0 * c[3], 3.0 * c[2], c[1]),
    )


def assert_smallest_root(got, poly):
    """got is the smallest root of poly in (0, 20], to the Horner rounding
    bound 8 u sum|p_i t^i| / |p'(t)| of the exact root t."""
    want = smallest_root_oracle(poly, 0.0, 20.0)
    assert want is not None, poly
    size = sum(abs(pk) * want**k for k, pk in enumerate(poly))
    slope = sum(k * pk * want ** (k - 1) for k, pk in enumerate(poly) if k)
    assert abs(got - want) <= 8 * EPS / 2 * size / abs(slope), (got, want)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


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

    def test_overflow_raises_for_numpy_scalars(self):
        # A numpy scalar overflowed with a RuntimeWarning before the NumericalError.
        with pytest.raises(NumericalError):
            pressure_1d(np.float64(1e-200), 1.0, PAPER_FIT, 1.0)


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

    def test_overflow_raises_for_numpy_scalars(self):
        # A numpy scalar overflowed with a RuntimeWarning before the NumericalError.
        a = np.float64(1e305)
        with pytest.raises(NumericalError):
            denergy_dpressure(a, a / 1.1134732392296698, PAPER_FIT)

    @pytest.mark.parametrize("variant,limit", [("consistent", 0.5), ("printed", 0.25)])
    def test_very_wide_wells_stay_finite(self, variant, limit):
        # From a/K ~ 1e62 up to where the sums overflow (~1.3e77), a * num
        # overflows although dE/dP ~ a/2 (a/4 printed) does not; it was inf.
        t = np.geomspace(1e60, 1e77, 300)
        ones = np.ones_like(t)
        _, dedp, near, overflow = pressure_columns(t, ones, PAPER_FIT, ones, variant)
        assert not (near | overflow).any()
        for ti, got in zip(t.tolist(), dedp.tolist()):
            scalar = denergy_dpressure(ti, 1.0, PAPER_FIT, variant)
            assert got == scalar
            assert scalar == pytest.approx(limit * ti, rel=1e-12)


class TestPressureColumns:
    @pytest.mark.parametrize("variant", ["consistent", "printed"])
    def test_match_scalar(self, variant, hydrogen_scale):
        K, V0, _ = hydrogen_scale
        a = np.geomspace(0.01, 1e3, 500) * K
        ones = np.ones_like(a)
        p, dedp, near, overflow = pressure_columns(a, K * ones, PAPER_FIT, V0 * ones, variant)
        assert not (near | overflow).any()
        for i, ai in enumerate(a.tolist()):
            assert p[i] == pressure_1d(ai, K, PAPER_FIT, V0)
            assert dedp[i] == denergy_dpressure(ai, K, PAPER_FIT, variant)

    def test_within_1e9_of_the_pole(self):
        # Both paths share one compensated sum, accurate as if summed in twice
        # the precision; a plain sum is 3e-7 off at 1e-9 relative distance and
        # 3e-5 off at 1e-11.
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        t = t_pole * (1.0 + np.array([-1e-9, -1e-10, -1e-11, 1e-11, 1e-10, 1e-9]))
        ones = np.ones_like(t)
        _, dedp, near, overflow = pressure_columns(t, ones, PAPER_FIT, ones)
        assert not (near | overflow).any()
        for ti, got in zip(t.tolist(), dedp.tolist()):
            assert got == denergy_dpressure(ti, 1.0, PAPER_FIT)

    def test_pole_is_flagged(self):
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        t = np.array([1.0, t_pole, 2.0])
        ones = np.ones_like(t)
        _, dedp, near, overflow = pressure_columns(t, ones, PAPER_FIT, ones)
        assert near.tolist() == [False, True, False]
        assert not overflow.any()
        assert math.isnan(dedp[1]) and np.isfinite(dedp[[0, 2]]).all()

    @pytest.mark.parametrize("t", [1e-200, 1e100])
    def test_overflow_is_flagged(self, t):
        # P overflows at 1e-200 and the dE/dP terms at 1e100; the scalar
        # functions raise there, the columns flag the row.
        a = np.array([1.0, t, 2.0])
        ones = np.ones_like(a)
        p, dedp, near, overflow = pressure_columns(a, ones, PAPER_FIT, ones)
        assert overflow.tolist() == [False, True, False]
        assert not near.any()
        assert math.isnan(p[1]) and math.isnan(dedp[1])
        for i in (0, 2):
            assert p[i] == pressure_1d(a[i], 1.0, PAPER_FIT, 1.0)
            assert dedp[i] == denergy_dpressure(a[i], 1.0, PAPER_FIT)
        with pytest.raises(NumericalError):
            pressure_1d(t, 1.0, PAPER_FIT, 1.0)
            denergy_dpressure(t, 1.0, PAPER_FIT)

    def test_dedp_out_of_range_is_flagged(self):
        # Just off the pole num/den is about 6e4, so dE/dP at a = 1e305 leaves
        # the float range with every term finite.
        t = critical_width(1.0, PAPER_FIT, "numeric").pole_location * (1.0 + 1e-6)
        a, K = 1e305, 1e305 / t
        p, dedp, near, overflow = pressure_columns(
            np.array([a, 1.0]), np.array([K, 1.0]), PAPER_FIT, np.ones(2))
        assert overflow.tolist() == [True, False] and not near.any()
        assert math.isnan(p[0]) and math.isnan(dedp[0])
        assert dedp[1] == denergy_dpressure(1.0, 1.0, PAPER_FIT)
        with pytest.raises(NumericalError, match="dE/dP overflows"):
            denergy_dpressure(a, K, PAPER_FIT)

    def test_overflowing_sum(self):
        # Every term is finite, but both sums overflow: the scalar path raised
        # a raw OverflowError from math.fsum where the columns flagged the row.
        coeffs = make_coeffs((0, 0, 0, 0, 1.7e307, 1.1e307))
        with pytest.raises(NumericalError):
            denergy_dpressure(1.0, 1.0, coeffs)
        with pytest.raises(NumericalError):
            pressure_profile(1.0, 1.0, coeffs, 1.0)
        ones = np.ones(1)
        p, dedp, near, overflow = pressure_columns(ones, ones, coeffs, ones)
        assert overflow.tolist() == [True] and not near.any()
        assert math.isnan(p[0]) and math.isnan(dedp[0])


def loop_rational_sums(t, c, variant):
    """(numerator, denominator, near_pole) of dE/dP in t = a/K: Sum2 as a loop
    over each polynomial's terms, written apart from the library."""
    lead = 2.0 * c[1] if variant == "printed" else c[1]
    polys = ((5.0 * c[5], 4.0 * c[4], 3.0 * c[3], 2.0 * c[2], c[1]),
             (15.0 * c[5], 10.0 * c[4], 6.0 * c[3], 3.0 * c[2], lead))
    t2 = t * t
    powers = (1.0, t, t2, t2 * t, t2 * t2)
    sums = []
    for poly in polys:
        terms = [poly[0]] + [k * x for k, x in zip(poly[1:], powers[1:])]
        total, error = terms[0], 0.0
        for term in terms[1:]:
            s = total + term
            back = s - total
            error = error + ((total - (s - back)) + (term - back))
            total = s
        sums.append(total + error)
    num, den = sums
    near_pole = den == 0.0
    for term in terms:  # the denominator's
        near_pole = near_pole | (abs(den) < POLE_RTOL * abs(term))
    return num, den, near_pole


def float_bits(x):
    return np.float64(x).view(np.uint64).item()


class TestRationalSums:
    """_rational_sums is bit-equal to the loop form, for floats and arrays."""

    FITS = [PAPER_FIT, refit(), refit(FitGrid(1.5, 10.0, 16))]

    @staticmethod
    def draws(coeffs, variant, size):
        # Seeded log-uniform t on [1e-150, 1e150], which overflows the terms
        # from about 1e77 up, plus the rows at and next to the pole.
        rng = np.random.default_rng(31)
        c = coeffs.c
        lead = 2.0 * c[1] if variant == "printed" else c[1]
        pole = smallest_root_oracle((15.0 * c[5], 10.0 * c[4], 6.0 * c[3], 3.0 * c[2], lead),
                                    0.0, 20.0)
        near = pole * (1.0 + np.array([-1e-9, -1e-12, -EPS, 0.0, EPS, 1e-12, 1e-9]))
        fixed = [0.0, 5e-324, 1e-300, 1.3e77, 1e100, 1.7976931348623157e308]
        return np.concatenate([np.exp(rng.uniform(math.log(1e-150), math.log(1e150), size)),
                               near, fixed])

    @pytest.mark.parametrize("variant", ["consistent", "printed"])
    @pytest.mark.parametrize("coeffs", FITS, ids=["paper", "refit", "refit-1.5"])
    def test_arrays(self, coeffs, variant):
        t = self.draws(coeffs, variant, 20000)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _rational_sums(t, coeffs.c, variant)
            want = loop_rational_sums(t, coeffs.c, variant)
        assert want[2].any() and not np.isfinite(want[1]).all()  # pole and overflow rows
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g.view(np.uint8), w.view(np.uint8))

    @pytest.mark.parametrize("variant", ["consistent", "printed"])
    @pytest.mark.parametrize("coeffs", FITS, ids=["paper", "refit", "refit-1.5"])
    def test_floats(self, coeffs, variant):
        for t in self.draws(coeffs, variant, 2000).tolist():
            num, den, near_pole = _rational_sums(t, coeffs.c, variant)
            want = loop_rational_sums(t, coeffs.c, variant)
            assert (float_bits(num), float_bits(den)) == (float_bits(want[0]), float_bits(want[1]))
            assert type(near_pole) is bool and near_pole == want[2]

    def test_signed_zeros(self):
        # With c = -0.0 throughout every term is -0.0, and a plain sum would
        # be -0.0; Sum2 gives +0.0, as the loop does.
        coeffs = make_coeffs((0.0, -0.0, -0.0, -0.0, -0.0, -0.0))
        for t in (0.0, 1.0):
            got = _rational_sums(t, coeffs.c, "consistent")
            assert [float_bits(x) for x in got[:2]] == [
                float_bits(x) for x in loop_rational_sums(t, coeffs.c, "consistent")[:2]]
            assert got[2]

    @pytest.mark.parametrize("k", range(5))
    def test_pole_rule_reads_every_term(self, k):
        # At t = 1 the denominator's terms are 15 c5, 10 c4, 6 c3, 3 c2 and c1.
        # Term k is 2 and two others are -1 and -(1 - 1.5e-12): den is about
        # 1.5e-12, below POLE_RTOL times term k alone.
        terms = [0.0] * 5
        others = [j for j in range(5) if j != k]
        terms[k], terms[others[0]], terms[others[1]] = 2.0, -1.0, -(1.0 - 1.5e-12)
        c = (0.0, terms[4], terms[3] / 3, terms[2] / 6, terms[1] / 10, terms[0] / 15)
        got = _rational_sums(1.0, c, "consistent")
        assert got == loop_rational_sums(1.0, c, "consistent")
        assert 1.0 < abs(got[1]) / POLE_RTOL < 2.0 and got[2]

    @pytest.mark.parametrize("call", [
        lambda: denergy_dpressure(1.0, 1.0, PAPER_FIT, "extrapolated"),
        lambda: pressure_columns(np.ones(1), np.ones(1), PAPER_FIT, np.ones(1), "extrapolated"),
        lambda: expansion_small_k(1.0, 0.5, PAPER_FIT, "extrapolated"),
    ], ids=["scalar", "columns", "small-k"])
    def test_variant_message(self, call):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == "variant must be 'printed' or 'consistent', got 'extrapolated'"


class TestSmallWidthExpansion:
    @settings(max_examples=400)
    @given(
        st.floats(math.log(1e-12), math.log(1e-2)),
        st.sampled_from([PAPER_FIT, refit()]),
        st.sampled_from(["consistent", "printed"]),
    )
    def test_second_order_in_t(self, log_t, coeffs, variant):
        # The check verify calls "consistent" holds over the whole narrow-well
        # range, second order in t = a/K and well within its 1e-2.
        t = math.exp(log_t)
        full = denergy_dpressure(t, 1.0, coeffs, variant)
        approx = expansion_small_width(t, 1.0, coeffs)
        assert abs(approx - full) <= (0.1 * t * t + 8 * EPS) * abs(full)

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

    def test_tiny_width(self):
        # a*a underflowed: 1.67e-201 where the exact value is 9.94e-202.
        got = expansion_small_width(1e-200, 1e-200, PAPER_FIT)
        assert_accurate(got, small_width_oracle(1e-200, 1e-200, C), SMALL_WIDTH_EPS)


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

    @pytest.mark.parametrize("variant", ["consistent", "printed"])
    def test_tiny_lengths(self, variant):
        # K*K underflowed to 0, so the dominant third term vanished and the
        # result was -6.2e-299 where the exact value is +2.4e-296.
        got = expansion_small_k(1e-300, 1e-300, PAPER_FIT, variant)
        assert_accurate(got, small_k_oracle(1e-300, 1e-300, C, variant), SMALL_K_EPS)

    @pytest.mark.parametrize("a", [5e-324, 1e-321])
    def test_zero_k_at_a_subnormal_width(self, a):
        # 2*a*c1^2 underflowed to 0: a raw ZeroDivisionError, not a/2.
        for variant in ("consistent", "printed"):
            assert expansion_small_k(a, 0.0, PAPER_FIT, variant) == a / 2

    def test_huge_coefficients(self):
        # c1^2 raised a raw OverflowError from c1 = 1e200 (and c2^2, c3^2
        # from about 1.3e154).
        got = expansion_small_k(1.0, 1.0, make_coeffs((0, 1e200, 1, 1, 1, 1)))
        assert_accurate(got, small_k_oracle(1.0, 1.0, (0, 1e200, 1, 1, 1, 1), "consistent"),
                        SMALL_K_EPS)
        for c, variant in [((0, 1, 1e200, 1, 1, 1), "consistent"),
                           ((0, 1, 1, 1e200, 1, 1), "printed")]:
            with pytest.raises(NumericalError, match="small-K expansion overflows"):
                expansion_small_k(1.0, 1.0, make_coeffs(c), variant)


class TestCriticalWidth:
    def test_paper_method(self):
        report = critical_width(2.0, PAPER_FIT, "paper")
        assert report.a0_paper == pytest.approx(2.476601 * 2.0, rel=1e-5)
        assert report.a0_numeric is None
        assert report.pole_location is None

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

    def test_numeric_method_within_2_ulp_of_exact_roots(self):
        report = critical_width(1.0, PAPER_FIT, "numeric")
        numer, denom = rational_polys(C)
        for got, poly in ((report.a0_numeric, numer), (report.pole_location, denom)):
            want = smallest_root_oracle(poly, 0.0, 20.0)
            assert abs(got - want) <= 2 * math.ulp(want), (got, want)

    def test_close_root_pair(self):
        # Roots 1.0013 and 1.0047 lie inside one 0.01 step of a fixed scan,
        # where the numerator keeps its sign at both ends.
        coeffs = quartic_fit((1.0013, 1.0047, -1.0, -2.0))
        report = critical_width(1.0, coeffs, "numeric")
        assert report.a0_numeric == pytest.approx(1.0013, abs=1e-12)
        numer, denom = rational_polys(coeffs.c)
        assert_smallest_root(report.a0_numeric, numer)
        assert_smallest_root(report.pole_location, denom)

    @settings(max_examples=200, deadline=None)
    @given(
        log_uniform(1e-4, 18.0),
        log_uniform(1e-6, 1.0),
        st.lists(st.tuples(log_uniform(1e-4, 18.0), st.booleans()), min_size=2, max_size=2),
    )
    def test_quartic_numerator_against_exact_oracle(self, r1, separation, others):
        # One pair at relative separation down to 1e-6; each other positive
        # root a factor 4 or more from every root, so the extremum between
        # two roots stands clear of the Horner rounding.  All roots below 18,
        # clear of the interval end 20.
        roots = [r1, r1 * (1.0 + separation)] + [r if up else -r for r, up in others]
        for i in (2, 3):
            if roots[i] > 0.0:
                near = [q for j, q in enumerate(roots) if j != i and q > 0.0]
                assume(all(max(roots[i] / q, q / roots[i]) >= 4.0 for q in near))
        coeffs = quartic_fit(roots)
        assert_smallest_root(critical_width(1.0, coeffs, "numeric").a0_numeric,
                             rational_polys(coeffs.c)[0])

    @pytest.mark.parametrize(
        "c", [(0.0,) * 6, (0.0, 1.0, math.nan, 0.0, 0.0, -1.0), (0.0, math.inf, 0.0, 0.0, 0.0, -1.0)]
    )
    def test_zero_or_non_finite_coefficients(self, c):
        # c1..c5 all 0: the numerator is identically 0, no width is defined.
        # An infinite c1 would put a root at the smallest double.
        with pytest.raises(DomainError):
            critical_width(1.0, make_coeffs(c), "numeric")

    @pytest.mark.parametrize("lam", [2.0**-1000, 2.0**600, 2.0**1015])
    @pytest.mark.parametrize("roots", [None, (2.0, 0.0, 0.0, 0.0)])
    def test_numeric_width_power_of_two_invariant(self, roots, lam):
        # Scaling c by a power of two moves no root; the search must not
        # overflow or underflow on the way.  roots=None is PAPER_FIT; the
        # root 2 of t^3 (t - 2) is reached only through the knots 1.5 and 1,
        # the roots of its first and second derivatives.
        coeffs = PAPER_FIT if roots is None else quartic_fit(roots)
        base = critical_width(1.0, coeffs, "numeric")
        scaled = critical_width(1.0, make_coeffs(lam * ck for ck in coeffs.c), "numeric")
        assert (scaled.a0_numeric, scaled.pole_location) == (base.a0_numeric, base.pole_location)

    def test_paper_width_scale_invariant(self):
        base = critical_width(1.0, PAPER_FIT, "paper").a0_paper
        for lam in (0.5, 3.0, 100.0):
            scaled = make_coeffs(tuple(lam * ck for ck in C))
            assert critical_width(1.0, scaled, "paper").a0_paper == pytest.approx(
                base, rel=1e-12
            )

    def test_c0_is_not_scaled(self):
        # The power-of-two scale once took in c0, which neither polynomial
        # uses: c0 = 1 against c1 = 1e-310 raised a raw OverflowError from
        # math.ldexp.  c0 moves no root.
        with pytest.raises(NoRoot):
            critical_width(1.0, make_coeffs((1.0, 1e-310, 0, 0, 0, 0)), "numeric")
        for c0 in (0.0, 1e300, -1e-300):
            shifted = make_coeffs((c0, *C[1:]))
            assert critical_width(1.0, shifted, "numeric") == critical_width(1.0, PAPER_FIT, "numeric")

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


# Accuracy bounds, in eps times the sum of the magnitudes of the exact terms
# (README's accuracy table).  Each is the rounding bound of the formula as
# written: eval_fit's degree-5 Horner sum (10 roundings) plus the rounding
# of 1/n (up to 5 more, in u^5); pressure_1d's u = K/a, the scaled
# coefficients, a degree-4 Horner sum and three products; the small-K
# expansion's ratios K/c1, K/a and third/c1, its products and sums; the
# small-width expansion's five products and quotients and one sum.
EVAL_FIT_EPS = 8
PRESSURE_1D_EPS = 9
SMALL_K_EPS = 5
SMALL_WIDTH_EPS = 3

# Coefficient sets for the accuracy properties: the published one, a refit,
# and sets of signed coefficients log-uniform in magnitude on [1e-3, 1e3].
coefficient_sets = st.one_of(
    st.sampled_from([PAPER_FIT, refit()]),
    st.lists(
        st.tuples(st.booleans(), st.floats(math.log(1e-3), math.log(1e3))),
        min_size=6, max_size=6,
    ).map(lambda cs: make_coeffs(-math.exp(x) if neg else math.exp(x) for neg, x in cs)),
)


def assert_accurate(got, exact, bound):
    value, size = exact
    assert abs(Fraction(got) - value) <= bound * Fraction(EPS) * size, (got, float(value))


class TestAccuracy:
    """Each scalar formula against its exact value in Fractions, on a log scale."""

    @settings(max_examples=200, deadline=None)
    @given(log_uniform(1e-60, sys.float_info.max), coefficient_sets)
    def test_eval_fit(self, n, coeffs):
        assert_accurate(eval_fit(coeffs, n), fit_series_oracle(coeffs.c, n), EVAL_FIT_EPS)

    @settings(max_examples=200, deadline=None)
    @given(log_uniform(1e-60, 1e60), log_uniform(1e-60, 1e60), log_uniform(1e-60, 1e60),
           coefficient_sets)
    def test_pressure_1d(self, a, K, V0, coeffs):
        # Within 1e-60..1e60 no intermediate of P underflows while P does
        # not (see CHANGES.md for outside it); u^5 may overflow.
        try:
            got = pressure_1d(a, K, coeffs, V0)
        except NumericalError:
            assume(False)
        assert_accurate(got, pressure_oracle(a, K, coeffs.c, V0), PRESSURE_1D_EPS)

    @settings(max_examples=200, deadline=None)
    @given(log_uniform(1e-300, 1e300), log_uniform(1e-12, 1e2), coefficient_sets,
           st.sampled_from(["consistent", "printed"]))
    @example(1e-300, 1.0, PAPER_FIT, "consistent")  # K*K underflowed: -6.2e-299, not +2.4e-296
    def test_small_k(self, a, k_over_a, coeffs, variant):
        K = a * k_over_a
        try:
            got = expansion_small_k(a, K, coeffs, variant)
        except NumericalError:
            assume(False)
        assert_accurate(got, small_k_oracle(a, K, coeffs.c, variant), SMALL_K_EPS)

    @settings(max_examples=200, deadline=None)
    @given(log_uniform(1e-300, sys.float_info.max), log_uniform(1e-300, sys.float_info.max),
           coefficient_sets)
    @example(1e-200, 1e-200, PAPER_FIT)  # a*a underflowed: 1.67e-201, not 9.94e-202
    def test_small_width(self, a, K, coeffs):
        try:
            got = expansion_small_width(a, K, coeffs)
        except NumericalError:
            assume(False)
        assert_accurate(got, small_width_oracle(a, K, coeffs.c), SMALL_WIDTH_EPS)


class TestFloatRange:
    @settings(max_examples=300, deadline=None)
    @given(
        log_uniform(1e-300, sys.float_info.max),
        log_uniform(1e-300, sys.float_info.max),
        log_uniform(1e-300, sys.float_info.max),
    )
    @example(1e200, 1e-200, 1.0)  # the small-width expansion was -inf
    @example(1e-300, 1e10, 1.0)  # the small-K expansion was inf
    @example(1.0, 1e308, 1.0)  # a0_paper was inf, and a < a0 a tie
    @example(1.0, 1.7e308, 1.0)  # the numeric pole location was inf
    def test_finite_or_finwell_error(self, a, K, V0):
        # Across the positive doubles each scalar function returns finite
        # numbers or raises a FinwellError: no inf, no NaN, no raw exception.
        calls = [
            lambda: pressure_1d(a, K, PAPER_FIT, V0),
            lambda: denergy_dpressure(a, K, PAPER_FIT, "consistent"),
            lambda: denergy_dpressure(a, K, PAPER_FIT, "printed"),
            lambda: expansion_small_width(a, K, PAPER_FIT),
            lambda: expansion_small_k(a, K, PAPER_FIT, "consistent"),
            lambda: expansion_small_k(a, K, PAPER_FIT, "printed"),
            lambda: critical_width(K, PAPER_FIT, "paper"),
            lambda: critical_width(K, PAPER_FIT, "numeric"),
            lambda: classify_response(a, K, PAPER_FIT),
        ]
        for call in calls:
            try:
                result = call()
            except FinwellError:
                continue
            if isinstance(result, float):
                result = (result,)
            values = [v for v in result if isinstance(v, float)]
            assert all(map(math.isfinite, values)), result


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
