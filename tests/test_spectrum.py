import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finwell import (
    CONSTANTS,
    DomainError,
    NoSuchBranch,
    WellConfig,
    energy_exact,
    energy_ratio,
    ground_states,
    hydrogen_well,
    solve_even_root,
    solve_ground_roots,
    well_strength,
)
from finwell.cli import main

from oracles import branch_root_oracle, even_root_oracle

# frozen from the bisection oracle
XI_N2 = 1.0298665293222586
RATIO_N2 = 0.26515626705456863


def residual(xi: float, n: float) -> float:
    return xi * math.tan(xi) - math.sqrt(max(n * n - xi * xi, 0.0))


class TestWellConfig:
    def test_valid(self):
        cfg = WellConfig(half_width=1e-10, depth=1e-18, mass=1e-30)
        assert cfg.half_width == 1e-10

    @pytest.mark.parametrize("field", ["half_width", "depth", "mass"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid(self, field, bad):
        kwargs = {"half_width": 1e-10, "depth": 1e-18, "mass": 1e-30, field: bad}
        with pytest.raises(DomainError):
            WellConfig(**kwargs)


class TestWellStrength:
    def test_hydrogen_preset(self, hydrogen_cfg):
        strength = well_strength(hydrogen_cfg)
        # K = hbar / sqrt(2 m V0) evaluated directly
        expected_k = CONSTANTS.hbar / math.sqrt(2 * hydrogen_cfg.mass * hydrogen_cfg.depth)
        assert strength.characteristic_length == pytest.approx(expected_k, rel=1e-15)
        assert strength.characteristic_length == pytest.approx(5.2918e-11, rel=1e-4)
        # cross-check against the published critical width arithmetic
        assert strength.characteristic_length == pytest.approx(
            1.31056e-10 / 2.476601, rel=2e-3
        )
        assert strength.strength == pytest.approx(1.0, abs=1e-3)

    def test_quadrupled_depth(self, hydrogen_cfg):
        base = well_strength(hydrogen_cfg)
        deeper = well_strength(
            WellConfig(hydrogen_cfg.half_width, 4 * hydrogen_cfg.depth, hydrogen_cfg.mass)
        )
        assert deeper.characteristic_length == pytest.approx(
            base.characteristic_length / 2, rel=1e-12
        )
        assert deeper.strength == pytest.approx(2 * base.strength, rel=1e-12)

    def test_width_equal_to_k_gives_unit_strength(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        strength = well_strength(WellConfig(K, V0, m))
        assert strength.strength == pytest.approx(1.0, rel=1e-14)

    def test_nk_recovers_width(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = float(rng.uniform(0.1, 20.0)) * K
            s = well_strength(WellConfig(a, V0, m))
            assert s.strength * s.characteristic_length == pytest.approx(a, rel=1e-14)


class TestSolveEvenRoot:
    def test_against_oracle_n2(self):
        xi = solve_even_root(2.0)
        assert xi == pytest.approx(XI_N2, abs=1e-10)
        assert xi == pytest.approx(even_root_oracle(2.0), abs=1e-10)

    def test_large_n_approaches_half_pi(self):
        xi = solve_even_root(100.0)
        assert abs(xi - math.pi / 2) / (math.pi / 2) < 0.02

    def test_branch_bracket_missing(self):
        with pytest.raises(NoSuchBranch):
            solve_even_root(1.0, branch=1)

    def test_residual_tolerance_random(self):
        rng = np.random.default_rng(17)
        for n in rng.uniform(0.1, 100.0, 300):
            xi = solve_even_root(float(n))
            assert abs(residual(xi, float(n))) <= 1e-12 * max(1.0, float(n))

    def test_root_in_branch_bracket(self):
        for branch in (0, 1, 2):
            xi = solve_even_root(10.0, branch)
            lo = branch * math.pi
            assert lo < xi < min(lo + math.pi / 2, 10.0)
            assert abs(residual(xi, 10.0)) <= 1e-12 * 10.0

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(23)
        for n in rng.uniform(0.1, 50.0, 100):
            assert solve_even_root(float(n)) == pytest.approx(
                even_root_oracle(float(n)), abs=1e-9
            )

    @pytest.mark.parametrize("n", [0.0, -2.0, math.inf, math.nan])
    def test_bad_strength(self, n):
        with pytest.raises(DomainError):
            solve_even_root(n)

    @pytest.mark.parametrize("n", [1e-6, 1e-3, 1e4])
    def test_extreme_strengths_meet_tolerance(self, n):
        xi = solve_even_root(n)
        assert abs(residual(xi, n)) <= 1e-12 * max(1.0, n)

    def test_negative_branch(self):
        with pytest.raises(DomainError):
            solve_even_root(2.0, branch=-1)


class TestRootAcceptance:
    """Roots the former xi*tan(xi) residual test rejected, against the oracles."""

    def test_deep_wells(self):
        for n in np.geomspace(1.0, 1e8, 401).tolist():
            xi = solve_even_root(n)
            assert abs(xi - even_root_oracle(n)) <= 2 * math.ulp(xi), n

    @pytest.mark.parametrize("k", range(1, 40))
    def test_just_above_branch_threshold(self, k):
        for eps in (1e-12, 1e-9, 1e-6, 1e-3, 0.1):
            n = k * math.pi + eps
            xi = solve_even_root(n, k)
            assert abs(xi - branch_root_oracle(n, k)) <= 2 * math.ulp(xi), (n, k)

    @pytest.mark.parametrize("n", [1e-300, 1e-100, 1e-9])
    def test_tiny_strength(self, n):
        assert solve_even_root(n) == n
        assert energy_ratio(n) == 1.0

    @pytest.mark.parametrize("n", [1e-8, 1e-5, 9.99e-4, 1e-3])
    def test_series_meets_iteration(self, n):
        assert abs(solve_even_root(n) - even_root_oracle(n)) <= 2 * math.ulp(n)

    def test_huge_strength_is_half_pi(self):
        for n in (1e20, 1e200, 1.7e308):
            assert solve_even_root(n) == 0.5 * math.pi
        assert solve_ground_roots(np.array([1e20, 1e200, 1.7e308])).tolist() == [0.5 * math.pi] * 3

    def test_deep_well_cli(self, capsys):
        assert main(["spectrum", "--width", "1e-3m", "--depth", "1eV", "--mass", "me"]) == 0
        capsys.readouterr()


class TestBatchedRoots:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(math.log(1e-12), math.log(1e12)), min_size=1, max_size=40))
    def test_matches_scalar_solver(self, logs):
        n = np.exp(np.array(logs))
        xi = solve_ground_roots(n)
        for ni, got in zip(n.tolist(), xi.tolist()):
            want = solve_even_root(ni)
            assert abs(got - want) <= 2 * math.ulp(want), ni

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_strength(self, bad):
        with pytest.raises(DomainError):
            solve_ground_roots(np.array([1.0, bad]))

    def test_ground_states_match_energy_exact(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        a = np.geomspace(0.05, 200.0, 300) * K
        states = ground_states(a, np.full_like(a, V0), np.full_like(a, m))
        for i, width in enumerate(a.tolist()):
            cfg = WellConfig(width, V0, m)
            strength = well_strength(cfg)
            state = energy_exact(cfg)
            assert states.strength[i] == strength.strength
            assert states.characteristic_length[i] == strength.characteristic_length
            assert abs(states.xi[i] - state.xi) <= 2 * math.ulp(state.xi)
            assert abs(states.energy[i] - state.energy) <= 8 * math.ulp(state.energy)

    @pytest.mark.parametrize("field", ["half_width", "depth", "mass"])
    def test_ground_states_domain(self, field):
        cols = {"half_width": np.ones(3) * 1e-10, "depth": np.ones(3) * 1e-18,
                "mass": np.ones(3) * 1e-30}
        cols[field] = np.array([1.0, -2.0, 0.0]) * cols[field]
        with pytest.raises(DomainError, match=f"{field} must be positive and finite, got -"):
            ground_states(**cols)


class TestEnergyExact:
    def test_ratio_n2(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        state = energy_exact(WellConfig(2 * K, V0, m))
        assert state.energy / V0 == pytest.approx(RATIO_N2, rel=1e-10)
        assert state.energy / V0 == pytest.approx(0.2652, abs=5e-5)

    def test_bound_state_invariants(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = float(rng.uniform(0.1, 50.0)) * K
            cfg = WellConfig(a, V0, m)
            n = well_strength(cfg).strength
            st = energy_exact(cfg)
            assert 0.0 < st.xi < n
            assert st.eta > 0.0
            assert st.xi**2 + st.eta**2 == pytest.approx(n * n, rel=1e-12)
            assert st.alpha == pytest.approx(st.xi / a, rel=1e-15)
            assert st.beta == pytest.approx(st.eta / a, rel=1e-15)
            assert st.energy == pytest.approx((st.xi / n) ** 2 * V0, rel=1e-14)
            assert 0.0 < st.energy < V0

    def test_energy_below_depth_everywhere(self):
        for n in (0.1, 0.5, 1.0, 3.0, 10.0, 100.0):
            ratio = energy_ratio(n)
            assert 0.0 < ratio < 1.0

    def test_infinite_well_limit_at_n50(self):
        assert energy_ratio(50.0) * 50.0**2 == pytest.approx(math.pi**2 / 4, rel=0.05)

    def test_limit_error_decreases(self):
        errors = [
            abs(energy_ratio(n) * n * n - math.pi**2 / 4) / (math.pi**2 / 4)
            for n in (10.0, 50.0, 100.0)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_monotone_in_width(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        widths = np.linspace(0.5, 10.0, 40) * K
        energies = [energy_exact(WellConfig(float(a), V0, m)).energy for a in widths]
        assert all(e1 > e2 for e1, e2 in zip(energies, energies[1:]))

    def test_higher_branch_energy_ordering(self, hydrogen_scale):
        K, V0, m = hydrogen_scale
        cfg = WellConfig(10.0 * K, V0, m)
        e0 = energy_exact(cfg, 0).energy
        e1 = energy_exact(cfg, 1).energy
        e2 = energy_exact(cfg, 2).energy
        assert e0 < e1 < e2


def test_hydrogen_well_preset():
    cfg = hydrogen_well()
    assert cfg.half_width == pytest.approx(0.529e-10, rel=1e-15)
    assert cfg.depth == pytest.approx(13.6058 * CONSTANTS.electronvolt, rel=1e-15)
    assert cfg.mass == CONSTANTS.electron_mass
