import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finwell import (
    DEFAULT_GRID,
    DomainError,
    FitCoefficients,
    FitGrid,
    NumericalError,
    PAPER_FIT,
    SingularSystem,
    dump_coefficients,
    energy_ratio,
    eval_fit,
    fit_inverse_poly,
    load_coefficients,
    refit,
    sample_energies,
)

from oracles import refit_oracle, refit_rms_oracle

# frozen from the bisection oracle
RATIO_N2 = 0.26515626705456863

PUBLISHED_C = (-0.000618, 0.018006, 2.259278, -3.678692, 2.908830, -0.960535)
PUBLISHED_CRITICAL_RATIO = 2.476601

# The refit against the exact least-squares solution of its float samples,
# relative: each coefficient against refit_oracle (lstsq was up to 3.1e-12
# off), and sigma against refit_rms_oracle (2.3e-12 at worst on 400 seeded
# 12- to 40-point grids in [1-2, 8-12]).
REFIT_C_RTOL = 4e-12
REFIT_SIGMA_RTOL = 4e-12

# DEFAULT_GRID, the three grids of test_critical_ratio_grid_insensitive and
# eight seeded 16-point grids in [1-2, 8-12].
_rng = random.Random(1201)
ORACLE_GRIDS = [
    DEFAULT_GRID, FitGrid(1.0, 10.0, 12), FitGrid(1.25, 9.5, 12), FitGrid(1.5, 10.0, 35),
    *(FitGrid(_rng.uniform(1.0, 2.0), _rng.uniform(8.0, 12.0), 16) for _ in range(8)),
]


def assert_sigma_near_exact(points, fitted):
    # The RMS residual of the exact least-squares solution, within
    # REFIT_SIGMA_RTOL of it plus the rounding of the float residual, which
    # is at most 10*eps*sum|c_k u^k|, the size of the fitted series.
    want = refit_rms_oracle(points)
    series = max(sum(abs(ck) * (1.0 / n) ** k for k, ck in enumerate(fitted.c)) for n, _ in points)
    bound = REFIT_SIGMA_RTOL * want + 10 * math.ulp(1.0) * series
    assert abs(fitted.sigma - want) <= bound, (fitted.sigma, want)


class TestFitGrid:
    def test_default(self):
        assert DEFAULT_GRID.n_start == 1.0
        assert DEFAULT_GRID.n_stop == 10.0
        assert DEFAULT_GRID.n_count >= 12

    @pytest.mark.parametrize(
        "start,stop,count",
        [(0.5, 10.0, 20), (1.0, 1.0, 20), (2.0, 1.0, 20), (1.0, 10.0, 11)],
    )
    def test_invalid(self, start, stop, count):
        with pytest.raises(DomainError):
            FitGrid(start, stop, count)

    def test_infinite_stop(self):
        with pytest.raises(DomainError, match="n_stop must be finite, got inf"):
            FitGrid(1.0, math.inf, 13)

    @pytest.mark.parametrize("count", [10**400, 10**5000], ids=["10**400", "10**5000"])
    def test_count_beyond_float_range(self, count):
        # refit raised a raw OverflowError from the grid step.  A finite
        # count too large to allocate, such as 10**11, is not tested: its
        # list of points fills memory slowly rather than raising.
        with pytest.raises(DomainError, match="n_count must be finite, got "):
            FitGrid(1.0, 10.0, count)

    @pytest.mark.parametrize("count", [12.5, 13.0, "13", None])
    def test_non_integer_count(self, count):
        with pytest.raises(DomainError, match="n_count must be an integer"):
            FitGrid(1.0, 10.0, count)
        with pytest.raises(DomainError, match="n_count must be an integer"):
            FitGrid(n_start=1.0, n_stop=10.0, n_count=count)
        with pytest.raises(DomainError, match="n_count must be an integer"):
            DEFAULT_GRID._replace(n_count=count)

    def test_integer_like_count_is_stored_as_int(self):
        # json.dump refuses numpy integers, so a refit's grid must hold an int.
        grid = FitGrid(1.0, 10.0, np.int64(13))
        assert grid == DEFAULT_GRID
        assert type(grid.n_count) is int

    @settings(max_examples=300)
    @given(
        st.floats(1.0, sys.float_info.max),
        st.floats(1.0, sys.float_info.max),
        st.integers(12, 2000),
    )
    @example(1.0, 10.0, 13)
    @example(1.0, 1.0000000000001, 13)
    @example(1e15, 1.0000000000000002e15, 12)
    @example(1.0, sys.float_info.max, 14)
    def test_points_match_linspace(self, start, stop, count):
        assume(start < stop)
        with np.errstate(over="ignore"):  # (count - 1) * step may round past the float range
            want = np.linspace(start, stop, count).tolist()
        assert FitGrid(start, stop, count).points() == want


class TestSampleEnergies:
    def test_grid_construction(self):
        pairs = sample_energies(FitGrid(1.0, 10.0, 91))
        assert len(pairs) == 91
        assert pairs[0][0] == 1.0
        assert pairs[-1][0] == 10.0

    def test_ratios_bounded(self):
        pairs = sample_energies(FitGrid(1.0, 10.0, 19))
        assert all(0.0 < r < 1.0 for _, r in pairs)

    def test_value_at_n2(self):
        pairs = sample_energies(FitGrid(1.0, 10.0, 91))
        n, ratio = pairs[10]
        assert n == pytest.approx(2.0, abs=1e-12)
        assert ratio == pytest.approx(RATIO_N2, rel=1e-10)


class TestFitInversePoly:
    def test_exact_model_recovery_paper(self):
        ns = DEFAULT_GRID.points()
        points = [(float(n), eval_fit(PAPER_FIT, float(n))) for n in ns]
        fitted = fit_inverse_poly(points)
        for got, want in zip(fitted.c, PUBLISHED_C):
            assert got == pytest.approx(want, abs=1e-9)
        assert fitted.sigma < 1e-12

    def test_exact_model_recovery_random(self):
        rng = np.random.default_rng(101)
        ns = np.linspace(1.0, 10.0, 25)
        for _ in range(100):
            c = tuple(rng.uniform(-10.0, 10.0, 6))
            synthetic = FitCoefficients(c=c, sigma=0.0, source="refit")
            points = [(float(n), eval_fit(synthetic, float(n))) for n in ns]
            fitted = fit_inverse_poly(points)
            for got, want in zip(fitted.c, c):
                assert got == pytest.approx(want, abs=1e-9)

    def test_default_refit_sigma(self):
        fitted = refit()
        assert fitted.sigma <= 1e-5
        assert fitted.source == "refit"
        assert fitted.grid == DEFAULT_GRID

    def test_default_refit_c2_near_published(self):
        fitted = refit()
        assert abs(fitted.c[2] - PUBLISHED_C[2]) / abs(PUBLISHED_C[2]) < 0.15

    def test_residuals_bounded_by_sigma(self):
        fitted = refit()
        worst = max(
            abs(eval_fit(fitted, n) - ratio)
            for n, ratio in sample_energies(DEFAULT_GRID)
        )
        assert worst <= 10 * fitted.sigma

    def test_critical_ratio_grid_insensitive(self):
        grids = [FitGrid(1.0, 10.0, 12), FitGrid(1.25, 9.5, 12), FitGrid(1.5, 10.0, 35)]
        ratios = [-7.5 * f.c[5] / f.c[4] for f in map(refit, grids)]
        for r in ratios:
            assert abs(r - PUBLISHED_CRITICAL_RATIO) / PUBLISHED_CRITICAL_RATIO < 0.10
        for r1 in ratios:
            for r2 in ratios:
                assert abs(r1 - r2) / abs(r2) < 0.10

    def test_too_few_points(self):
        points = [(float(n), 0.5) for n in range(1, 12)]
        with pytest.raises(DomainError):
            fit_inverse_poly(points)

    def test_duplicate_points(self):
        points = [(1.0 + 0.5 * k, 0.5) for k in range(12)]
        points[3] = points[2]
        with pytest.raises(DomainError):
            fit_inverse_poly(points)

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"{g.n_start:.4g}:{g.n_stop:.4g}:{g.n_count}")
    def test_matches_exact_least_squares(self, grid):
        # The exact solution of the float samples and its RMS residual.
        points = sample_energies(grid)
        want = refit_oracle(points)
        fitted = fit_inverse_poly(points)
        for k, (g, w) in enumerate(zip(fitted.c, want)):
            assert abs(g - w) <= REFIT_C_RTOL * abs(w), (k, g, w)
        want_sigma = refit_rms_oracle(points)
        assert abs(fitted.sigma - want_sigma) <= REFIT_SIGMA_RTOL * want_sigma, (fitted.sigma, want_sigma)

    @pytest.mark.parametrize("k,n,y,error", [
        (0, math.nan, 0.5, DomainError),
        (0, 5e-324, 0.5, NumericalError),
        (0, 1e-31, 0.5, NumericalError),
        (0, 1e-70, 0.5, NumericalError),
        (4, 3.0, math.nan, NumericalError),
        (4, 3.0, math.inf, NumericalError),
    ])
    def test_samples_outside_the_float_range(self, k, n, y, error):
        # lstsq raised LinAlgError for the first two, SingularSystem for the
        # third (its rank test is relative to the 1e155 entry) and returned nan
        # for the last two.
        points = [(1.0 + 0.5 * i, 0.5) for i in range(12)]
        points[k] = (n, y)
        with pytest.raises(error):
            fit_inverse_poly(points)

    def test_default_grid_near_exact_least_squares(self):
        # Tighter than test_matches_exact_least_squares: a modified
        # Gram-Schmidt QR of the Vandermonde matrix is 8.3e-13 off here.
        points = sample_energies(DEFAULT_GRID)
        want = refit_oracle(points)
        got = fit_inverse_poly(points).c
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 2e-13 * abs(w), (k, g, w)

    @pytest.mark.parametrize("grid", [
        FitGrid(1.0, 1e300, 13), FitGrid(1.0, 1.0000000000001, 13), FitGrid(1.0, 1e16, 13),
    ], ids=str)
    def test_rank_deficient_grid(self, grid):
        with pytest.raises(SingularSystem) as caught:
            fit_inverse_poly(sample_energies(grid))
        assert str(caught.value) == "design matrix rank 2 < 6"

    @pytest.mark.parametrize("grid", [FitGrid(5.0, 6.0, 12), FitGrid(1.0, 1000.0, 20)], ids=str)
    def test_full_rank_near_miss(self, grid):
        # Narrow and ill-conditioned, but of full rank: the rank test must not fire.
        points = sample_energies(grid)
        fitted = fit_inverse_poly(points)
        assert all(math.isfinite(ck) for ck in fitted.c)
        assert_sigma_near_exact(points, fitted)

    @settings(max_examples=150)
    @given(
        st.floats(0.0, 3.0),
        st.floats(math.log10(1.0 + 1e-6), 6.0),
        st.integers(12, 40),
    )
    @example(0.0, 1.0, 13)
    @example(0.0, 3.0, 20)
    @example(math.log10(5.0), math.log10(1.2), 12)
    def test_log_scale_grids(self, log_start, log_ratio, count):
        # Any grid with n_start in [1, 1e3] and n_stop/n_start in [1 + 1e-6,
        # 1e6], log-uniform: a typed numerical failure or the least-squares fit.
        n_start = 10.0**log_start
        points = sample_energies(FitGrid(n_start, n_start * 10.0**log_ratio, count))
        try:
            fitted = fit_inverse_poly(points)
        except (SingularSystem, NumericalError):
            return
        assert all(math.isfinite(ck) for ck in fitted.c)
        assert_sigma_near_exact(points, fitted)

    def test_singular_system(self):
        # twelve numerically coincident abscissae: rank collapses
        points = [(1.0 + k * 1e-9, 0.5 + k * 1e-9) for k in range(12)]
        with pytest.raises(SingularSystem):
            fit_inverse_poly(points)


class TestEvalFit:
    def test_paper_at_n2_by_hand(self):
        c = PUBLISHED_C
        by_hand = c[0] + c[1] / 2 + c[2] / 4 + c[3] / 8 + c[4] / 16 + c[5] / 32
        assert eval_fit(PAPER_FIT, 2.0) == pytest.approx(by_hand, rel=1e-15)
        assert eval_fit(PAPER_FIT, 2.0) == pytest.approx(0.265153, abs=1e-6)

    def test_constant_series(self):
        coeffs = FitCoefficients(c=(1.0, 0, 0, 0, 0, 0), sigma=0.0, source="refit")
        for n in (0.3, 1.0, 7.5):
            assert eval_fit(coeffs, n) == 1.0

    def test_paper_close_to_exact_at_n2(self):
        assert abs(eval_fit(PAPER_FIT, 2.0) - energy_ratio(2.0)) <= 1e-4

    @pytest.mark.parametrize("n", [0.0, -1.0])
    def test_nonpositive_strength(self, n):
        with pytest.raises(DomainError):
            eval_fit(PAPER_FIT, n)

    def test_overflow_raises(self):
        # (1/n)^5 leaves the float range; the series must not return -inf.
        with pytest.raises(NumericalError, match="overflows"):
            eval_fit(PAPER_FIT, 1e-70)


class TestCoefficientsJson:
    def test_paper_set_values(self):
        assert PAPER_FIT.c == PUBLISHED_C
        assert PAPER_FIT.sigma == 2.2e-6
        assert PAPER_FIT.source == "paper"
        assert PAPER_FIT.grid is None

    def test_dict_roundtrip(self):
        fitted = refit()
        again = FitCoefficients.from_dict(fitted.to_dict())
        assert again == fitted

    def test_document_shape(self):
        doc = PAPER_FIT.to_dict()
        assert set(doc) == {"c", "sigma", "source", "grid"}
        assert len(doc["c"]) == 6
        assert doc["grid"] is None

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "coeffs.json"
        fitted = refit()
        dump_coefficients(fitted, str(path))
        assert load_coefficients(str(path)) == fitted
        doc = json.loads(path.read_text())
        assert doc["grid"] == {"n_start": 1.0, "n_stop": 10.0, "n_count": 13}

    @pytest.mark.parametrize("field", ["c1", "sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_from_dict_rejects_non_finite(self, field, bad):
        doc = PAPER_FIT.to_dict()
        if field == "sigma":
            doc["sigma"] = bad
        else:
            doc["c"][1] = bad
        with pytest.raises(DomainError, match="must be finite"):
            FitCoefficients.from_dict(doc)

    def test_load_rejects_non_integer_count(self, tmp_path):
        path = tmp_path / "coeffs.json"
        doc = refit().to_dict()
        doc["grid"]["n_count"] = 12.5
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="n_count must be an integer, got 12.5"):
            load_coefficients(str(path))

    def test_from_dict_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            FitCoefficients.from_dict({"c": [1, 2, 3], "sigma": 0.0, "source": "refit"})
