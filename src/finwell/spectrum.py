"""Even-parity bound states of the 1D finite potential well.

The well is flat inside |x| < a and has height V0 outside.  With the
dimensionless strength n = a*sqrt(2*m*V0)/hbar, even-parity levels are the
roots of

    xi * tan(xi) = sqrt(n^2 - xi^2),        0 < xi < n,

one root per branch k in the interval (k*pi, k*pi + pi/2).  The energy of a
level is E = (xi/n)^2 * V0.  Branch 0 exists for every n > 0; the original
analysis uses only that ground branch, higher branches are an engineering
extension.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import index

from .errors import ConvergenceFailure, DomainError, NoSuchBranch, NumericalError
from .errors import check_positive, check_positive_columns
from .units import CONSTANTS

# A root is accepted when its backward error |f|/|f'| is at most
# ROOT_ULPS_BACKWARD ulps of xi, or when its bracket has shrunk to
# ROOT_ULPS_BRACKET ulps.
ROOT_ULPS_BACKWARD = 8.0
ROOT_ULPS_BRACKET = 4.0
# Below this strength the ground root is taken from its series, whose first
# omitted term is 12.3 n^17, far under an ulp of xi; below 1e-8 it rounds to n.
SERIES_STRENGTH = 1e-3
# At or below this strength the ground level takes eta = xi*tan(xi), whose
# condition number in xi, 1 + 2 xi/sin(2 xi), is 2 to 3 there; that of
# sqrt(n^2 - xi^2) is xi^2/eta^2 ~ 1/n^2, and it rounds to 0 below n ~ 1e-8.
# Against a decimal root, xi*tan(xi) is within 2 ulp up to n = 1 and the sqrt
# form within 2 ulp above it; with the switch at 0.1 it was up to 35 ulp off.
TAN_ETA_STRENGTH = 1.0
_MAX_ITER = 200


class WellConfig(namedtuple("WellConfig", "half_width depth mass")):
    """Physical description of the well, all SI: half_width a [m], depth V0 [J], mass [kg]."""

    __slots__ = ()

    def __new__(cls, half_width: float, depth: float, mass: float) -> WellConfig:
        check_positive(half_width=half_width, depth=depth, mass=mass)
        return super().__new__(cls, half_width, depth, mass)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


# Dimensionless strength n and the natural length scale K = hbar/sqrt(2mV0) [m].
WellStrength = namedtuple("WellStrength", "strength characteristic_length")

# One solved even-parity level.  xi is the interior phase alpha*a, eta the
# exterior decay phase beta*a; alpha [1/m] is the interior wavenumber and
# beta [1/m] the exterior decay constant; energy E [J].  xi^2 + eta^2 = n^2
# and E = (xi/n)^2 * V0.
BoundState = namedtuple("BoundState", "branch xi eta alpha beta energy")

# Branch-0 columns of a batch of wells, one array entry per well: strength n,
# characteristic_length K [m], xi and energy E [J].
GroundStates = namedtuple("GroundStates", "strength characteristic_length xi energy")


def _strength(a, momentum):
    # (n, K) from the half-width and sqrt(2 m V0); floats or arrays.
    return a * momentum / CONSTANTS.hbar, CONSTANTS.hbar / momentum


def _out_of_float_range(quantity: str, a: float, m: float, V0: float) -> NumericalError:
    return NumericalError(
        f"{quantity} leaves the float range at a = {a:.6g} m, m = {m:.6g} kg, V0 = {V0:.6g} J"
    )


def _energy(xi, n, V0):
    return (xi / n) ** 2 * V0


def well_strength(cfg: WellConfig) -> WellStrength:
    """Strength n = a*sqrt(2mV0)/hbar and length scale K = hbar/sqrt(2mV0)."""
    a, m, V0 = cfg.half_width, cfg.mass, cfg.depth
    momentum = math.sqrt(2.0 * m * V0)  # sqrt(2mV0) [kg m/s]
    if not 0.0 < momentum < math.inf:
        raise _out_of_float_range("2 m V0", a, m, V0)
    n, K = _strength(a, momentum)
    if not 0.0 < n < math.inf:
        raise _out_of_float_range("n = a sqrt(2 m V0)/hbar", a, m, V0)
    return WellStrength(strength=n, characteristic_length=K)


def _branch_bracket(n: float, branch: int) -> tuple[float, float]:
    if branch > n:  # branch k needs n > k pi > k; refused before k pi can overflow
        raise NoSuchBranch(f"branch exceeds the strength n = {n:.6g}; branch k needs n > k pi")
    lo = branch * math.pi
    hi = min(lo + 0.5 * math.pi, n)
    if hi <= lo:
        if n <= lo:
            raise NoSuchBranch(
                f"branch {branch} needs strength n > {lo:.6g}, got n = {n:.6g}"
            )
        # pi/2 is below half an ulp of k pi (k above about 5.7e15)
        raise NumericalError(
            f"branch {branch} cannot be resolved: its bracket (k pi, k pi + pi/2) "
            f"rounds to the single double k pi = {lo:.6g}"
        )
    return lo, hi


def _stable_residual(xi, n, xp=math):
    # cos(xi) * (xi*tan(xi) - sqrt(n^2 - xi^2)): same roots, no tan pole.
    # sqrt(n - xi) * sqrt(n + xi) neither cancels near xi = n nor overflows.
    # Evaluated at the bracket ends, where xi = n leaves _newton_step undefined,
    # rounded as the f of _newton_step is.
    return xi * xp.sin(xi) - xp.cos(xi) * (xp.sqrt(n - xi) * xp.sqrt(n + xi))


def _nearer_end(lo, hi, n, xp):
    # The bracket end with the smaller |residual|: the root where the last
    # Newton point leaves its bracket.  Just above a branch threshold the root
    # rounds onto xi = n, where f ~ sqrt(n - xi) makes each step overshoot
    # twice over, so a point 4 ulp short passes the step test.
    closer = abs(_stable_residual(lo, n, xp)) < abs(_stable_residual(hi, n, xp))
    if xp is math:
        return lo if closer else hi
    return xp.where(closer, lo, hi)


# On the ground branch xi tan(xi) = eta with xi^2 + eta^2 = n^2 is
# cos(xi) = xi/n.  Below _START_CUT Newton starts from its series in n^2,
# above it from xi = pi/2 - delta, sin(delta) = xi/n (tan(delta) = xi/eta),
# in t = 1/(n + 1); each is cut after its n^15 or t^8 term.  The tests
# derive both in exact rationals and bound their error: under 5% next to
# the cut, where both near their radius of convergence, and under 3e-4
# outside 0.5 < n < 2.
_START_CUT = 0.7


def _small_n_series(n):
    m = n * n
    return n * (1.0 + m * (-0.5 + m * (0.5416666666666666 + m * (-0.7513888888888889 + m * (
        1.1791914682539681 + m * (-1.992890487213404 + m * (3.538831847325771 + m * (
            -6.510188254079933))))))))


def _large_n_series(n):
    t = 1.0 / (n + 1.0)
    return 1.5707963267948966 - t * (1.5707963267948966 + t * t * (0.6459640975062463 + t * (
        -0.6459640975062463 + t * (0.7172336362155034 + t * (-1.5141598986771738 + t * (
            1.8503209429083753 + t * (-3.4129987646473237)))))))


def _ground_start(n, xp):
    # Newton's start for the ground root: 0 < start < n and start <= pi/2
    # from n = SERIES_STRENGTH on.  xp is math for a float, numpy for an
    # array, whose rows each form only their own series (n^2 of a huge n
    # would overflow).
    if xp is math:
        return _small_n_series(n) if n < _START_CUT else _large_n_series(n)
    x = xp.empty_like(n)
    small = n < _START_CUT
    x[small] = _small_n_series(n[small])
    x[~small] = _large_n_series(n[~small])
    return x


def _newton_step(x, n, xp):
    # (f, f/f') of the pole-free residual f = x sin x - cos x sqrt(n^2 - x^2),
    # for x < n; xp is math for floats, numpy for arrays.
    sin, cos = xp.sin(x), xp.cos(x)
    eta = xp.sqrt(n - x) * xp.sqrt(n + x)
    f = x * sin - cos * eta
    return f, f / (sin * (1.0 + eta) + x * cos * (1.0 + 1.0 / eta))


def _backward_error(xi: float, n: float) -> float:
    """|f|/|f'| of the pole-free residual: how far xi is from its root."""
    if xi == n:
        return 0.0  # f' is infinite where xi meets n
    return abs(_newton_step(xi, n, math)[1])


def _convergence_failure(
    reason: str, n: float, branch: int, iterations: int, lo: float, hi: float, xi: float
) -> ConvergenceFailure:
    return ConvergenceFailure(
        f"{reason} for n={n}, branch={branch}: {iterations} iterations, bracket "
        f"width {hi - lo:.3e}, backward error {_backward_error(xi, n):.3e} at xi={xi!r}"
    )


def solve_even_root(n: float, branch: int = 0) -> float:
    """Root xi of the even-parity condition on the given branch.

    Newton's method on the pole-free form xi*sin(xi) - cos(xi)*sqrt(n^2 - xi^2),
    kept inside the bracket (k*pi, min(k*pi + pi/2, n)) by bisection.  The
    bracket contains exactly one root, at which the residual changes sign
    monotonically.  Branch 0 starts from a series of its root (in n^2 below
    n = 0.7, in 1/(n + 1) above), higher branches from the bracket
    midpoint.  The ground bracket's end signs are known in closed form for
    SERIES_STRENGTH <= n < 1e15; elsewhere the end residuals are evaluated.
    A root is accepted when its Newton step (the backward error) is at most
    ROOT_ULPS_BACKWARD ulps or its bracket at most ROOT_ULPS_BRACKET ulps;
    where the accepted Newton point leaves the bracket, the end with the
    smaller |residual| is taken.  Below SERIES_STRENGTH the ground root is
    its series in n.  solve_ground_roots runs the same iteration on arrays.
    """
    if not math.isfinite(n) or n <= 0.0:
        raise DomainError(f"strength n must be positive, got {n}")
    try:
        branch = index(branch)
    except TypeError:
        raise DomainError(f"branch must be an integer, got {branch!r}") from None
    if branch < 0:
        raise DomainError("branch must be non-negative")  # str() of a huge int raises
    if branch == 0 and n < SERIES_STRENGTH:
        return _small_n_series(n)
    if branch == 0 and n < 1e15:
        # The ground bracket's end signs are proved, not evaluated: f(0) = -n
        # < 0, and f(hi) > 0 at hi = min(pi/2, n).  For n < pi/2, f(n) =
        # n sin(n).  At hi = fl(pi/2), sin(hi) rounds to 1 and cos(hi) =
        # 6.12e-17, so f(hi) = fl(pi/2) - 6.12e-17 eta > 0 while eta < 2.56e16;
        # here eta < n < 1e15.  _nearer_end alone forms end residuals.
        lo, hi, rising = 0.0, min(0.5 * math.pi, n), True
    else:
        lo, hi = _branch_bracket(n, branch)
        f_lo = _stable_residual(lo, n)
        f_hi = _stable_residual(hi, n)
        if f_lo == 0.0:
            return lo
        if f_hi == 0.0:
            return hi
        if (f_lo > 0.0) == (f_hi > 0.0):
            # No sign change in floating point: the root rounds onto an end.
            for end in (hi, lo):
                if _backward_error(end, n) <= ROOT_ULPS_BACKWARD * math.ulp(end):
                    return end
            raise _convergence_failure(
                f"no sign change on ({lo!r}, {hi!r})", n, branch, 0, lo, hi,
                lo if abs(f_lo) < abs(f_hi) else hi,
            )
        # The residual rises through the root on even branches, falls on odd ones.
        rising = f_lo < 0.0

    x = _ground_start(n, math) if branch == 0 else 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        f, step = _newton_step(x, n, math)
        if (f < 0.0) == rising:
            lo = x
        else:
            hi = x
        newton = x - step
        inside = lo < newton < hi
        if abs(step) <= ROOT_ULPS_BACKWARD * math.ulp(x):
            if inside or newton == x:  # a step under half an ulp keeps x, an end
                return newton
            return _nearer_end(lo, hi, n, math)
        if hi - lo <= ROOT_ULPS_BRACKET * math.ulp(hi):
            return x
        x = newton if inside else 0.5 * (lo + hi)
    raise _convergence_failure("root unresolved", n, branch, _MAX_ITER, lo, hi, x)


def solve_ground_roots(n: np.ndarray) -> np.ndarray:
    """Branch-0 roots xi for an array of strengths, all solved at once.

    The iteration of solve_even_root on every row together, bit for bit:
    Newton's method on the pole-free residual, kept inside each row's
    bracket (0, min(pi/2, n)) by bisection, from the same series start and
    with the same acceptance rule, including the end with the smaller
    |residual| where an accepted Newton point leaves its bracket (only
    those rows evaluate end residuals).  Below SERIES_STRENGTH the root is
    the series itself.
    """
    import numpy as np
    n = np.asarray(n, dtype=float)
    check_positive_columns(n=n)
    xi = _ground_start(n, np)  # the root itself below SERIES_STRENGTH
    rows = np.flatnonzero(n >= SERIES_STRENGTH)
    m, x = n[rows], xi[rows]
    lo = np.zeros_like(m)
    hi = np.minimum(0.5 * math.pi, m)
    for _ in range(_MAX_ITER):
        if rows.size == 0:
            return xi
        f, step = _newton_step(x, m, np)
        below = f < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        newton = x - step
        inside = (lo < newton) & (newton < hi)
        done = np.abs(step) <= ROOT_ULPS_BACKWARD * np.spacing(x)
        ends = done & ~inside & (newton != x)
        if ends.any():
            newton[ends] = _nearer_end(lo[ends], hi[ends], m[ends], np)
        xi[rows[done]] = newton[done]
        collapsed = ~done & (hi - lo <= ROOT_ULPS_BRACKET * np.spacing(hi))
        xi[rows[collapsed]] = x[collapsed]
        keep = ~(done | collapsed)
        x = np.where(inside, newton, 0.5 * (lo + hi))[keep]
        rows, m, lo, hi = rows[keep], m[keep], lo[keep], hi[keep]
    if rows.size:
        raise _convergence_failure(
            f"{rows.size} ground roots unresolved, the first", float(m[0]), 0,
            _MAX_ITER, float(lo[0]), float(hi[0]), float(x[0]),
        )
    return xi


def energy_ratio(n: float, branch: int = 0) -> float:
    """E/V0 for the given strength and branch."""
    xi = solve_even_root(n, branch)
    return (xi / n) ** 2


def energy_exact(cfg: WellConfig, branch: int = 0) -> BoundState:
    """Fully solved bound state for a physical well configuration."""
    strength = well_strength(cfg)
    n = strength.strength
    xi = solve_even_root(n, branch)
    if branch == 0 and n <= TAN_ETA_STRENGTH:
        eta = xi * math.tan(xi)
    else:
        eta = math.sqrt(n - xi) * math.sqrt(n + xi)  # no overflow of n*n
    a = cfg.half_width
    return BoundState(
        branch=index(branch),  # solve_even_root refuses a non-integer branch
        xi=xi,
        eta=eta,
        alpha=xi / a,
        beta=eta / a,
        energy=_energy(xi, n, cfg.depth),
    )


def ground_states(
    half_width: np.ndarray, depth: np.ndarray, mass: np.ndarray
) -> GroundStates:
    """Branch-0 n, K, xi and E for equal-length arrays of well parameters.

    The array counterpart of well_strength plus energy_exact: the same
    domain checks and formulas, with one batched root solve.
    """
    import numpy as np
    check_positive_columns(half_width=half_width, depth=depth, mass=mass)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        # 2 m V0 or n leaving the float range is raised below.
        momentum = np.sqrt(2.0 * mass * depth)
        n, K = _strength(half_width, momentum)
    for quantity, x in (("2 m V0", momentum), ("n = a sqrt(2 m V0)/hbar", n)):
        bad = np.flatnonzero(~((0.0 < x) & (x < math.inf)))
        if bad.size:
            i = bad[0]
            raise _out_of_float_range(quantity, half_width[i], mass[i], depth[i])
    xi = solve_ground_roots(n)
    return GroundStates(
        strength=n, characteristic_length=K, xi=xi, energy=_energy(xi, n, depth)
    )


def hydrogen_well() -> WellConfig:
    """Hydrogen-like preset: depth 13.6058 eV, half-width the Bohr radius, electron mass."""
    return WellConfig(0.529e-10, 13.6058 * CONSTANTS.electronvolt, CONSTANTS.electron_mass)
