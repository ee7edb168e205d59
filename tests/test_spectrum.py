import ast
import inspect
import math
import re
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finwell import (
    CONSTANTS,
    ConvergenceFailure,
    DomainError,
    NoSuchBranch,
    NumericalError,
    WellConfig,
    energy_exact,
    energy_ratio,
    ground_states,
    hydrogen_well,
    solve_even_root,
    solve_ground_roots,
    well_strength,
)
from finwell import spectrum
from finwell.cli import main

from oracles import (
    HALF_PI,
    PI_DIGITS,
    branch_root_eta_oracle,
    even_root_oracle,
    eta_oracle,
    ground_root_eta_oracle,
    ground_series_large,
    ground_series_small,
)

# frozen from the bisection oracle
XI_N2 = 1.0298665293222586
RATIO_N2 = 0.26515626705456863
# eta of a level on branch k >= 1, relative to the decimal root's; the same
# bound holds from n = k pi + 1e-12 up (eta ~ k pi eps next to a threshold).
BRANCH_ETA_RTOL = 1e-15


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

    @pytest.mark.parametrize("mass, depth", [(1e300, 1e300), (1e-300, 1e-300)])
    def test_2mv0_out_of_float_range(self, mass, depth):
        # Overflow gave n = inf and K = 0.0, underflow a ZeroDivisionError.
        named = re.escape(f"m = {mass:.6g} kg, V0 = {depth:.6g} J")
        with pytest.raises(NumericalError, match=named):
            well_strength(WellConfig(1.0, depth, mass))
        with pytest.raises(NumericalError, match=named):
            ground_states(np.ones(2), np.array([1e-18, depth]), np.array([1e-30, mass]))

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--width", "1m", "--depth", "1e300J", "--mass", "1e300kg"],
        ["sweep", "--param", "mass", "--from", "1e300kg", "--to", "1e301kg", "--steps", "2",
         "--width", "1m", "--depth", "1e300J"],
    ])
    def test_2mv0_overflow_cli(self, capsys, argv):
        # Both exited 1 with "n must be positive", naming a quantity not given.
        assert main(argv) == 2
        assert "m = 1e+300 kg, V0 = 1e+300 J" in capsys.readouterr().err

    def test_n_out_of_float_range(self):
        # 2 m V0 is in range but n = a sqrt(2 m V0)/hbar overflows; it was a
        # DomainError, "strength n must be positive, got inf".
        named = re.escape("n = a sqrt(2 m V0)/hbar leaves the float range at a = 1e+300 m, "
                          "m = 1e-30 kg, V0 = 1e-18 J")
        with pytest.raises(NumericalError, match=named):
            energy_exact(WellConfig(1e300, 1e-18, 1e-30))

    @pytest.mark.parametrize("argv, width", [
        (["spectrum", "--width", "1e300m", "--depth", "1eV", "--mass", "me"], "1e+300"),
        (["spectrum", "--width", "1e-320m", "--depth", "1eV", "--mass", "me"], "9.99989e-321"),
        (["sweep", "--param", "width", "--from", "1e299m", "--to", "1e300m", "--steps", "2",
          "--depth", "1eV", "--mass", "me"], "1e+299"),
    ])
    def test_n_out_of_float_range_cli(self, capsys, argv, width):
        # Each exited 1 with "n must be positive", though every input is
        # positive and finite: n overflows to inf or underflows to 0.0.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"n = a sqrt(2 m V0)/hbar leaves the float range at a = {width} m" in err


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
        # The message once turned the integer into text: a raw ValueError.
        with pytest.raises(DomainError, match="branch must be non-negative"):
            solve_even_root(20.0, -10**5000)

    def test_sub_ulp_branch_bracket(self):
        # From k ~ 5.7e15, k pi + pi/2 rounds to k pi: at n > k pi the branch
        # exists, but its root cannot be told from k pi in doubles.
        with pytest.raises(NumericalError, match="cannot be resolved"):
            solve_even_root(5.12e16, 10**16)
        with pytest.raises(NoSuchBranch, match=r"needs strength n > 3\.14159e\+16"):
            solve_even_root(3.0e16, 10**16)

    @pytest.mark.parametrize("branch", [10**400, 21, 2**1100], ids=["10**400", "21", "2**1100"])
    def test_branch_above_strength(self, branch):
        # 10**400 * pi raised a raw OverflowError before the bracket check.
        with pytest.raises(NoSuchBranch, match="branch exceeds the strength n = 20"):
            solve_even_root(20.0, branch)

    @pytest.mark.parametrize("branch", [2.5, 2.0, "1", None])
    def test_non_integer_branch(self, branch):
        # 2.5 gave ConvergenceFailure, a numerical error, from a bracket
        # (2.5 pi, 3 pi) that holds no root.
        with pytest.raises(DomainError, match="branch must be an integer"):
            solve_even_root(20.0, branch)


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
            assert abs(xi - branch_root_eta_oracle(n, k, 80)[0]) <= 2 * math.ulp(xi), (n, k)

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

    def test_shallow_well_cli(self, capsys):
        # n = 5.1e-11: eta printed 0 while the true eta = xi tan(xi) ~ n^2.
        assert main(["spectrum", "--width", "1e-20m", "--depth", "1eV", "--mass", "me"]) == 0
        values = dict(
            (key.strip(), float(value)) for key, _, value in
            (line.partition("=") for line in capsys.readouterr().out.splitlines())
        )
        assert values["eta"] == pytest.approx(2.6e-21, rel=0.01)
        assert values["eta"] == pytest.approx(values["n"] ** 2, rel=1e-8)


def signed_literals(func) -> list[float]:
    """The number literals of func's return expression, in source order, with
    a unary minus applied."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    expr = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Return))
    negated = {
        id(node.operand) for node in ast.walk(expr)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    }
    literals = sorted(
        (node for node in ast.walk(expr) if isinstance(node, ast.Constant)),
        key=lambda node: (node.lineno, node.col_offset),
    )
    return [-node.value if id(node) in negated else node.value for node in literals]


class TestGroundStart:
    """Newton's ground start, against series derived in exact rationals."""

    def test_small_n_coefficients(self):
        # xi = n (1 + u_1 n^2 + ... + u_7 n^14)
        assert signed_literals(spectrum._small_n_series) == [
            float(u) for u in ground_series_small(8)
        ]

    def test_large_n_coefficients(self):
        # xi = pi/2 - t (d_1 + d_3 t^2 + ... + d_8 t^7); t = 1/(n + 1) removes t^2
        d = ground_series_large(9)
        assert d[0] == d[2] == 0
        assert signed_literals(spectrum._large_n_series) == [
            float(HALF_PI), float(d[1]), *(float(dk) for dk in d[3:])
        ]

    @pytest.mark.parametrize("lo, hi, bound", [
        (1e-3, 0.1, 4e-15),
        (0.1, 0.5, 3e-4),
        (0.5, math.nextafter(spectrum._START_CUT, 0.0), 5e-2),  # both series are
        (spectrum._START_CUT, 2.0, 5e-2),  # near their radius of convergence at the cut
        (2.0, 12.0, 3e-4),
        (12.0, 1e12, 1e-9),
    ])
    def test_relative_error_by_band(self, lo, hi, bound):
        # The error grows toward the cut from either side, so the band ends
        # bound it; both ends are checked.
        for n in np.geomspace(lo, hi, 5).tolist():
            want = ground_root_eta_oracle(n)[0]
            assert abs(spectrum._ground_start(n, math) - want) <= bound * want, n

    def test_inside_the_bracket(self):
        # At a start of n, eta = 0 and the Newton step is undefined; a start of
        # pi/2 is allowed where the root rounds to it (n >= 1e16).
        n = np.concatenate([np.geomspace(1e-3, 1.7e308, 20001), np.linspace(1e-3, 3.0, 20001)])
        x = spectrum._ground_start(n, np)
        assert np.all((0.0 < x) & (x < n) & (x <= 0.5 * math.pi))
        assert [spectrum._ground_start(ni, math) for ni in n.tolist()] == x.tolist()

    @pytest.mark.parametrize("lo, hi, bound, branches", [
        pytest.param(1e-3, 0.6, 1.26, False, id="0.001-0.6-1.6"),
        pytest.param(0.1, 1e4, 1.53, False, id="0.1-10000.0-2.0"),
        pytest.param(1.0, 12.0, 2.3, False, id="1.0-12.0-3.0"),
        pytest.param(1.5 * math.pi, 3e3, 2.6, True, id="branches"),
    ])
    def test_newton_evaluations_per_root(self, monkeypatch, lo, hi, bound, branches):
        # Means on these draws from the start min(pi/2 n/(n+1), n/sqrt(1+n)):
        # 10.1, 3.31 and 3.52; from the series start 1.44, 1.88 and 2.80,
        # and 1.15, 1.39 and 2.09 on the residual n cos(theta) - xi with its
        # step-squared acceptance.  Higher branches, k uniform on
        # 1..(n - pi/2)/pi as in the benchmark's draw: 4.20 from the bracket
        # midpoint, 2.53 from acos(k pi/n) corrected once, 2.36 from that
        # start on n cos(theta) - xi.  Each bound is about its mean plus 10%.
        step, calls = spectrum._newton_step, []
        monkeypatch.setattr(spectrum, "_newton_step", lambda *args: calls.append(1) or step(*args))
        rng = np.random.default_rng(21)
        draws = np.exp(rng.uniform(math.log(lo), math.log(hi), 2000))
        for n in draws.tolist():
            k = int(rng.integers(1, int((n - 0.5 * math.pi) // math.pi) + 1)) if branches else 0
            solve_even_root(n, k)
        assert len(calls) / draws.size <= bound


class TestHigherBranchProperty:
    @settings(max_examples=300)
    @given(st.floats(math.log(1.5 * math.pi), math.log(1e6)), st.data())
    def test_within_2_ulp_of_oracle(self, log_n, data):
        n = math.exp(log_n)
        top = int(n / math.pi)  # the highest branch k with k*pi < n
        if top * math.pi >= n:
            top -= 1
        k = data.draw(st.integers(1, top))
        xi = solve_even_root(n, k)
        assert abs(xi - branch_root_eta_oracle(n, k, 80)[0]) <= 2 * math.ulp(xi), (n, k)


def unit_well(n: float) -> WellConfig:
    # sqrt(2 m V0) is hbar exactly, so K = 1 m and the strength is n to an ulp.
    return WellConfig(n, 1.0, CONSTANTS.hbar**2 / 2)


class TestBranchThreshold:
    """Branch k >= 1 solved in theta = xi - k pi, next to its threshold n = k pi."""

    @pytest.mark.parametrize("k", [1, 3, 1000, 2**26 + 1, 2**40 + 12345, 5 * 10**15])
    def test_k_pi_two_double(self, k):
        # k pi = b + b_lo to 2^-104 relative, also where k needs a split
        b, b_lo, eps = spectrum._branch_offset(4.0 * k, k)
        want = k * Fraction(PI_DIGITS)
        assert abs(Fraction(b) + Fraction(b_lo) - want) <= want * Fraction(2) ** -104
        assert abs(Fraction(eps) - (Fraction(4.0 * k) - want)) <= Fraction(math.ulp(eps))

    def check_level(self, k, eps):
        cfg = unit_well(k * math.pi + eps)
        n = well_strength(cfg).strength
        state = energy_exact(cfg, k)
        want_xi, want_eta = branch_root_eta_oracle(n, k)
        assert abs(state.xi - want_xi) <= 2 * math.ulp(want_xi), (n, k)
        assert abs(state.eta - want_eta) <= BRANCH_ETA_RTOL * want_eta, (n, k, state.eta / want_eta)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_eta_next_to_threshold(self, k, eps):
        # eta ~ k pi eps: it was 0.0 from eps ~ 1e-9 down, and 1.5e-5 to
        # 3.5e-5 off at eps = 1e-6, from n - xi with xi rounded next to k pi.
        self.check_level(k, eps)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 1000), st.floats(math.log(1e-12), 0.0))
    def test_eta_property(self, k, log_eps):
        self.check_level(k, math.exp(log_eps))

    @pytest.mark.parametrize(
        "n, k", [(1e20, 1), (3e16, 2), (1e300, 3), (1.7976931348623157e308, 7)])
    def test_past_the_bracket_top(self, n, k):
        # From n ~ (k + 1/2) 2e15 on the residual at fl(pi/2) can be <= 0:
        # the root lies under half an ulp above the bracket top, and Newton
        # leaves the bracket through it.
        cfg = unit_well(n)
        n = well_strength(cfg).strength
        state = energy_exact(cfg, k)
        want_xi, want_eta = branch_root_eta_oracle(n, k)
        assert abs(state.xi - want_xi) <= 2 * math.ulp(want_xi)
        assert abs(state.eta - want_eta) <= 2 * math.ulp(want_eta)


class TestConvergenceDiagnostics:
    """A ConvergenceFailure says how far the solver got."""

    def check_message(self, exc, n, branch, iterations, step_max):
        match = re.search(
            r"(\d+) iterations, last step (\S+), backward error (\S+) at xi=(\S+)$",
            str(exc.value),
        )
        assert match, str(exc.value)
        assert int(match[1]) == iterations
        assert 0.0 < abs(float(match[2])) <= step_max
        xi = float(match[4])
        want = spectrum._backward_error(xi, n, branch)
        assert float(match[3]) == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("n, branch", [(2.0, 0), (5.0, 0), (20.0, 3), (1e3, 7)])
    def test_scalar(self, monkeypatch, n, branch):
        monkeypatch.setattr(spectrum, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceFailure, match=f"n={n}, branch={branch}") as exc:
            solve_even_root(n, branch)
        self.check_message(exc, n, branch, 1, 0.5 * math.pi)

    def test_energy_exact_on_a_higher_branch(self, monkeypatch):
        # energy_exact takes theta from the root solve, so a root that is not
        # resolved within the budget fails energy_exact with the same message.
        cfg = unit_well(3 * math.pi + 1.0)
        n = well_strength(cfg).strength
        monkeypatch.setattr(spectrum, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceFailure, match=f"root unresolved for n={n}, branch=3") as exc:
            energy_exact(cfg, 3)
        self.check_message(exc, n, 3, 1, 0.5 * math.pi)

    def test_batched(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceFailure, match="2 ground roots unresolved") as exc:
            solve_ground_roots(np.array([1e-4, 2.0, 5.0, 1e5]))
        assert "n=2.0, branch=0" in str(exc.value)
        self.check_message(exc, 2.0, 0, 1, 0.5 * math.pi)


class TestBatchedRoots:
    @settings(max_examples=200)
    @given(st.lists(st.floats(math.log(1e-12), math.log(1e300)), min_size=1, max_size=40))
    @example([math.log(1.5955634434013662e16)])  # the batched root was 1 ulp low
    @example([math.log(9129563212616468.0)])  # a row once handed to solve_even_root
    def test_matches_scalar_solver(self, logs):
        n = np.exp(np.array(logs))
        assert solve_ground_roots(n).tolist() == [solve_even_root(ni) for ni in n.tolist()]

    def assert_bit_equal(self, n):
        assert solve_ground_roots(n).tolist() == [solve_even_root(ni) for ni in n.tolist()]

    def test_hand_offs(self):
        # The batch and the scalar loop agree bit for bit on the benchmark's
        # sweep grid, in the log-uniform draw, and from n = 1e15 up, where
        # the root is within ulps of pi/2.
        rng = np.random.default_rng(0)
        self.assert_bit_equal(np.geomspace(0.09, 110.0, 3000))
        self.assert_bit_equal(np.exp(rng.uniform(math.log(1e-3), math.log(1e12), 20000)))
        self.assert_bit_equal(np.geomspace(1e15, 1e300, 100001))
        self.assert_bit_equal(np.geomspace(1e15, 1e17, 200001))

    @pytest.mark.parametrize("fraction", [0.5, 0.999999])
    def test_poor_start_hands_off_bit_equal(self, monkeypatch, fraction):
        # From a start of the bracket midpoint, or just under its top, both
        # solvers take more steps and clip more often; they still agree.
        def start(n, xp):
            top = min(n, 0.5 * math.pi) if xp is math else np.minimum(n, 0.5 * math.pi)
            return fraction * top

        monkeypatch.setattr(spectrum, "_ground_start", start)
        self.assert_bit_equal(np.geomspace(1e-3, 1e300, 20001))

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
            assert states.xi[i] == state.xi
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

    def test_hydrogen_ground_state_beta(self, hydrogen_cfg, hydrogen_scale):
        # beta = sqrt(2 m (V0 - E))/hbar = sqrt(1 - E/V0)/K for the solved level.
        K, V0, _ = hydrogen_scale
        state = energy_exact(hydrogen_cfg)
        assert state.beta == pytest.approx(math.sqrt(1 - state.energy / V0) / K, rel=1e-10)

    @pytest.mark.parametrize("n,branch", [
        (1.02e-3, 0), (0.3, 0), (2.0, 0), (1e6, 0), (1e12, 0), (1.3e164, 0),
        (math.pi + 1e-6, 1), (5 * math.pi + 1e-6, 5), (20 * math.pi + 1e-6, 20),
    ])
    def test_eta_against_decimal_oracle(self, hydrogen_scale, n, branch):
        # sqrt(n*n - xi*xi) was 3e5 ulp off near n = 1e-3, 1.6e11 ulp just
        # above a branch threshold, and inf from n = 1.34e154.  Up to
        # n = 1e12, and on every higher branch, the reference is the true eta
        # of the decimal root, not sqrt(n^2 - xi^2) at the rounded xi (7e-5
        # off the true eta at n = pi + 1e-6); above, where xi is within ulps
        # of pi/2, it is sqrt(n^2 - xi^2) in decimal.
        K, V0, m = hydrogen_scale
        cfg = WellConfig(n * K, V0, m)
        state = energy_exact(cfg, branch)
        strength = well_strength(cfg).strength
        if branch:
            want = branch_root_eta_oracle(strength, branch)[1]
        elif strength <= 1e12:
            want = ground_root_eta_oracle(strength)[1]
        else:
            want = eta_oracle(strength, state.xi)
        assert abs(state.eta - want) <= 2 * math.ulp(want)

    @settings(max_examples=100)
    @given(st.floats(math.log(1e-12), math.log(2.9)))
    @example(math.log(5.12316722e-11))
    @example(math.log(0.1000000001))
    def test_shallow_well_eta_property(self, log_n):
        # sqrt(n - xi) sqrt(n + xi) has condition ~1/n^2 in xi and was 0.0
        # below n ~ 1e-8 (true eta ~ n^2); xi tan(xi) keeps every digit.  With
        # the switch at n = 0.1 the sqrt form was up to 35 ulp off above it.
        h = hydrogen_well()
        K = well_strength(h).characteristic_length
        cfg = WellConfig(math.exp(log_n) * K, h.depth, h.mass)
        n = well_strength(cfg).strength
        assume(n < 3.0)  # the oracle's domain; n = a sqrt(2 m V0)/hbar may round up
        want = ground_root_eta_oracle(n)[1]
        state = energy_exact(cfg)
        assert abs(state.eta - want) <= 3 * math.ulp(want), (n, state.eta, want)
        assert state.beta == state.eta / cfg.half_width

    @settings(max_examples=100)
    @given(st.floats(math.log(2.9), math.log(1e12)))
    def test_deep_well_eta_property(self, log_n):
        # Above the shallow range eta = sqrt(n - xi) sqrt(n + xi), checked up
        # to n = 1e12 against the decimal root rather than at the rounded xi.
        h = hydrogen_well()
        K = well_strength(h).characteristic_length
        cfg = WellConfig(math.exp(log_n) * K, h.depth, h.mass)
        n = well_strength(cfg).strength
        assume(n <= 1e12)  # the oracle's domain; n may round up
        want = ground_root_eta_oracle(n)[1]
        state = energy_exact(cfg)
        assert abs(state.eta - want) <= 3 * math.ulp(want), (n, state.eta, want)

    @settings(max_examples=300)
    @given(st.floats(math.log(1e12), math.log(1.7e308)))
    def test_huge_well_eta_property(self, log_n):
        # From n = 1e12 on xi is within ulps of pi/2 and eta = n sin(xi);
        # the reference is sqrt(n^2 - xi^2) in decimal at the solver's xi.
        cfg = unit_well(math.exp(log_n))
        n = well_strength(cfg).strength
        state = energy_exact(cfg)
        want = eta_oracle(n, state.xi)
        assert abs(state.eta - want) <= 2 * math.ulp(want), (n, state.eta, want)

    @settings(max_examples=300)
    @given(st.floats(math.log(1e-12), math.log(1e12)))
    def test_root_and_pythagoras_property(self, log_n):
        # xi within 2 ulp of the bisection oracle; xi^2 + eta^2, summed
        # exactly, within 4 eps n^2: eta = sqrt(n - xi) sqrt(n + xi) carries up
        # to 2 eps from its five roundings, and xi^2 + eta^2 twice that.
        h = hydrogen_well()
        K = well_strength(h).characteristic_length
        cfg = WellConfig(math.exp(log_n) * K, h.depth, h.mass)
        n = well_strength(cfg).strength
        state = energy_exact(cfg)
        assert abs(state.xi - even_root_oracle(n)) <= 2 * math.ulp(state.xi), n
        err = abs(Fraction(state.xi) ** 2 + Fraction(state.eta) ** 2 - Fraction(n) ** 2)
        assert err <= 4 * Fraction(2.0 ** -52) * Fraction(n) ** 2, n

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

    def test_branch_must_be_an_integer(self, hydrogen_scale):
        # branch=2.0 returned a BoundState with branch 2.0; an integer-like
        # numpy value is stored as int.
        K, V0, m = hydrogen_scale
        cfg = WellConfig(10.0 * K, V0, m)
        with pytest.raises(DomainError, match="branch must be an integer, got 2.0"):
            energy_exact(cfg, 2.0)
        state = energy_exact(cfg, np.int64(2))
        assert type(state.branch) is int and state == energy_exact(cfg, 2)
        with pytest.raises(NoSuchBranch):
            energy_exact(cfg, 10**400)

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
