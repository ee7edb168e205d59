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
# omitted term is 0.75 n^7, under 1e-18 of xi; below 1e-8 the series rounds to n.
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


def _stable_residual(xi: float, n: float) -> float:
    # cos(xi) * (xi*tan(xi) - sqrt(n^2 - xi^2)): same roots, no tan pole.
    # sqrt(n - xi) * sqrt(n + xi) neither cancels near xi = n nor overflows.
    # Evaluated at the bracket ends, where xi = n leaves _newton_step undefined.
    return xi * math.sin(xi) - math.cos(xi) * math.sqrt(n - xi) * math.sqrt(n + xi)


def _series_root(n):
    # Ground root of xi*tan(xi) = sqrt(n^2 - xi^2) for small n, floats or arrays.
    return n - n * n * n * (0.5 - 13.0 / 24.0 * n * n)


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
    monotonically.  Branch 0 starts from min(pi/2 * n/(n+1), n/sqrt(1+n)),
    higher branches from the bracket midpoint.  A root is accepted when its
    Newton step (the backward error) is at most ROOT_ULPS_BACKWARD ulps or
    its bracket at most ROOT_ULPS_BRACKET ulps; below SERIES_STRENGTH the
    ground root comes from its series in n.  solve_ground_roots runs the
    same iteration on arrays.
    """
    if not math.isfinite(n) or n <= 0.0:
        raise DomainError(f"strength n must be positive, got {n}")
    try:
        branch = index(branch)
    except TypeError:
        raise DomainError(f"branch must be an integer, got {branch!r}") from None
    if branch < 0:
        raise DomainError("branch must be non-negative")  # str() of a huge int raises
    lo, hi = _branch_bracket(n, branch)
    if branch == 0 and n < SERIES_STRENGTH:
        return _series_root(n)

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
    if branch == 0:
        x = min(0.5 * math.pi * (n / (n + 1.0)), n / math.sqrt(1.0 + n))
    else:
        x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        f, step = _newton_step(x, n, math)
        if (f < 0.0) == rising:
            lo, f_lo = x, f
        else:
            hi, f_hi = x, f
        newton = x - step
        inside = lo < newton < hi
        if abs(step) <= ROOT_ULPS_BACKWARD * math.ulp(x):
            if inside:
                return newton
            # Just above a branch threshold the root rounds onto xi = n, where
            # f ~ sqrt(n - xi) makes each step overshoot twice over, so a point
            # 4 ulp short passes the step test: take the better bracket end.
            return lo if abs(f_lo) < abs(f_hi) else hi
        if hi - lo <= ROOT_ULPS_BRACKET * math.ulp(hi):
            return x
        x = newton if inside else 0.5 * (lo + hi)
    raise _convergence_failure("root unresolved", n, branch, _MAX_ITER, lo, hi, x)


def solve_ground_roots(n: np.ndarray) -> np.ndarray:
    """Branch-0 roots xi for an array of strengths, all solved at once.

    The iteration of solve_even_root on every row together: Newton's method
    on the pole-free residual, kept inside each row's bracket
    (0, min(pi/2, n)) by bisection, from the start
    min(pi/2 * n/(n+1), n/sqrt(1+n)), with the same acceptance rule.  Where
    an accepted Newton point leaves its bracket the row keeps its last
    iterate.  Below SERIES_STRENGTH the root comes from its series.
    """
    import numpy as np
    n = np.asarray(n, dtype=float)
    check_positive_columns(n=n)
    xi = n.copy()
    small = n < SERIES_STRENGTH
    xi[small] = _series_root(n[small])
    rows = np.flatnonzero(~small)
    m = n[rows]
    lo = np.zeros_like(m)
    hi = np.minimum(0.5 * math.pi, m)
    x = np.minimum(0.5 * math.pi * (m / (m + 1.0)), m / np.sqrt(1.0 + m))
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
        xi[rows[done]] = np.where(inside, newton, x)[done]
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
