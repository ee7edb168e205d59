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
from .errors import FLOAT_MAX, check_positive, check_positive_columns, value_text
from .units import CONSTANTS

# Below this strength the ground root is taken from its series, whose first
# omitted term is 12.3 n^17, far under an ulp of xi; below 1e-8 it rounds to n.
SERIES_STRENGTH = 1e-3
_MAX_ITER = 200
_HALF_PI = 0.5 * math.pi  # fl(pi/2), the top of every bracket


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
# beta [1/m] the exterior decay constant; energy E [J] and energy_ratio E/V0.
# xi^2 + eta^2 = n^2 and E = (xi/n)^2 * V0; energy_ratio is (xi/n)^2 itself,
# which keeps its digits where E is subnormal.
BoundState = namedtuple("BoundState", "branch xi eta alpha beta energy energy_ratio")

# Branch-0 columns of a batch of wells, one array entry per well: strength n,
# characteristic_length K [m], xi, energy E [J] and energy_ratio E/V0.
GroundStates = namedtuple(
    "GroundStates", "strength characteristic_length xi energy energy_ratio")


def _strength(a, momentum):
    # (n, K) from the half-width and sqrt(2 m V0); floats or arrays.
    return a * momentum / CONSTANTS.hbar, CONSTANTS.hbar / momentum


def _out_of_float_range(quantity: str, a: float, m: float, V0: float) -> NumericalError:
    return NumericalError(
        f"{quantity} leaves the float range at a = {a:.6g} m, m = {m:.6g} kg, V0 = {V0:.6g} J"
    )


def _ratio(xi, n):
    # E/V0 = (xi/n)^2; floats or arrays.
    return (xi / n) ** 2


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


# pi = math.pi + _PI_LO to about 2^-107 relative, and math.pi = _PI_HEAD +
# _PI_TAIL, Veltkamp's split into parts of at most 26 significant bits, so
# that their products with the parts of a split k are exact.
_PI_LO = 1.2246467991473532e-16
_PI_HEAD = 3.1415926814079285
_PI_TAIL = -2.781813535079891e-08


def _branch_offset(n: float, branch: int) -> tuple[float, float, float]:
    # (b, b_lo, eps) of branch k: k pi = b + b_lo to about 2^-106 relative,
    # and eps = n - k pi, whose only rounding is the last one where n is
    # within a factor 2 of k pi (n - b is then exact); (0, 0, n) for k = 0.
    if branch > n:  # branch k needs n > k pi > k; refused before k pi can overflow
        raise NoSuchBranch(f"branch exceeds the strength n = {n:.6g}; branch k needs n > k pi")
    b = branch * math.pi
    if b + _HALF_PI > b:
        # Dekker's exact product k * math.pi = b + err, k < 2^53 a double
        # here, split by Veltkamp as pi is.
        k = float(branch)
        c = 134217729.0 * k  # 2^27 + 1
        k_head = c - (c - k)
        k_tail = k - k_head
        err = ((k_head * _PI_HEAD - b) + k_head * _PI_TAIL
               + k_tail * _PI_HEAD) + k_tail * _PI_TAIL
        b_lo = err + k * _PI_LO
        eps = (n - b) - b_lo
        if eps > 0.0:
            return b, b_lo, eps
    elif n > b:  # pi/2 is below half an ulp of k pi (k above about 5.7e15)
        raise NumericalError(
            f"branch {branch} cannot be resolved: its bracket (k pi, k pi + pi/2) "
            f"rounds to the single double k pi = {b:.6g}"
        )
    raise NoSuchBranch(f"branch {branch} needs strength n > {b:.6g}, got n = {n:.6g}")


# Each root solve is in theta = xi - k pi on the bracket (0, min(pi/2, eps)),
# with b = fl(k pi) and eps = n - k pi.  On every branch the root has
# cos(theta) = xi/n, so it is the root of
#     g(theta) = eps cos(theta) - theta - b sin(theta)^2/(1 + cos(theta)),
# which is n cos(theta) - xi with n = b + eps and 1 - cos(theta) written so
# that it does not cancel.  g has no square root and no pole, g(0) = eps > 0,
# and g' = -((eps + b) sin(theta) + 1) < 0 and g'' = -(eps + b) cos(theta) < 0
# on the bracket: Newton falls monotonically onto the root from its right,
# and one step from its left lands right of it.  For k = 0 (b = 0, eps = n)
# g is n cos(xi) - xi.


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


def _newton_step(theta, b, eps, xp):
    # The step g/g' of g above; xp is math for floats, numpy for arrays.
    # g' < 0, so the step is negative left of the root.
    sin, cos = xp.sin(theta), xp.cos(theta)
    return (theta + b * sin * sin / (1.0 + cos) - eps * cos) / ((eps + b) * sin + 1.0)


def _backward_error(xi: float, n: float, branch: int) -> float:
    """|g/g'| at xi on the given branch: how far xi is from its root."""
    b, b_lo, eps = _branch_offset(n, branch)
    return abs(_newton_step((xi - b) - b_lo, b, eps, math))


def _convergence_failure(
    reason: str, n: float, branch: int, iterations: int, step: float, xi: float
) -> ConvergenceFailure:
    return ConvergenceFailure(
        f"{reason} for n={n}, branch={branch}: {iterations} iterations, last step "
        f"{step:.3e}, backward error {_backward_error(xi, n, branch):.3e} at xi={xi!r}"
    )


def solve_even_root(n: float, branch: int = 0, _theta: bool = False) -> float:
    """Root xi of the even-parity condition on the given branch.

    One Newton loop serves every branch k, in theta = xi - k*pi with
    eps = n - k*pi.  k*pi is held as two doubles, so eps keeps its digits
    just above a threshold.  The residual is n*cos(theta) - xi, written
    with no square root, no pole and no cancellation.  It falls and is
    concave on the bracket (0, min(pi/2, eps)), so Newton falls onto the
    root monotonically from its right, and a step from its left lands right
    of it or is clipped to the bracket top.  Branch 0 starts from a series
    of its root (in n^2 below n = 0.7, in 1/(n + 1) above), higher branches
    from acos(k*pi/n) with one trig-free correction.  The Newton point of a
    step s from theta is accepted when s^2 <= theta*ulp(theta)/2, which
    leaves it within a quarter ulp of the root (|g''/g'| < 1/theta), or
    when the clipped point does not move.  Below SERIES_STRENGTH the ground
    root is its series in n.  solve_ground_roots runs the same loop on
    arrays.
    """
    # _theta is energy_exact's: it returns (xi, theta), as eta = n sin(theta).
    if not 0.0 < n <= FLOAT_MAX:
        raise DomainError(f"strength n must be positive, got {value_text(n)}")
    try:
        branch = index(branch)
    except TypeError:
        raise DomainError(f"branch must be an integer, got {branch!r}") from None
    if branch < 0:
        raise DomainError("branch must be non-negative")  # str() of a huge int raises
    if branch == 0:
        if n < SERIES_STRENGTH:
            xi = _small_n_series(n)
            return (xi, xi) if _theta else xi
        b = b_lo = 0.0
        eps = n
        hi = min(_HALF_PI, n)
        x = _ground_start(n, math)
    else:
        b, b_lo, eps = _branch_offset(n, branch)
        hi = min(_HALF_PI, eps)
        # cos(theta) = xi/n on every branch, so theta0 = acos(k pi/n), here
        # atan2(r, k pi) with r = n sin(theta0) = sqrt(eps (n + k pi)).  One
        # Newton step on cos(theta) = (k pi + theta)/n from theta0, with
        # sin(theta0) = r/n, gives theta0 r/(r + 1); just above the threshold
        # that lands near 2 eps, past hi = eps, and is clipped to it.
        r = math.sqrt(eps) * math.sqrt(n + b)
        x = min(math.atan2(r, b) * r / (r + 1.0), hi)
    # The root can lie above hi = fl(pi/2), under half an ulp, from n ~
    # (k + 1/2) 2e15 on; Newton's point is then clipped to hi and stays.
    ulp = math.ulp
    for _ in range(_MAX_ITER):
        step = _newton_step(x, b, eps, math)
        theta = x - step
        if theta > hi:
            theta = hi
        if step * step <= 0.5 * x * ulp(x) or theta == x:
            xi = b + (theta + b_lo)
            return (xi, theta) if _theta else xi
        x = theta
    raise _convergence_failure("root unresolved", n, branch, _MAX_ITER, step, b + (x + b_lo))


def solve_ground_roots(n: np.ndarray) -> np.ndarray:
    """Branch-0 roots xi for an array of strengths, all solved at once.

    solve_even_root's loop with k = 0 (theta = xi, eps = n) on arrays:
    every row starts from the same series and takes the same Newton steps,
    clip and acceptance, so each row has the scalar root bit for bit.
    Below SERIES_STRENGTH the root is the series itself.
    """
    import numpy as np
    n = np.asarray(n, dtype=float)
    check_positive_columns(n=n)
    xi = _ground_start(n, np)  # the root itself below SERIES_STRENGTH
    rows = np.flatnonzero(n >= SERIES_STRENGTH)
    m, x = n[rows], xi[rows]
    hi = np.minimum(_HALF_PI, m)
    for _ in range(_MAX_ITER):
        if rows.size == 0:
            return xi
        step = _newton_step(x, 0.0, m, np)
        theta = np.minimum(x - step, hi)
        done = (step * step <= 0.5 * x * np.spacing(x)) | (theta == x)
        xi[rows[done]] = theta[done]
        keep = ~done
        rows, m, hi, x, step = rows[keep], m[keep], hi[keep], theta[keep], step[keep]
    if rows.size:
        raise _convergence_failure(
            f"{rows.size} ground roots unresolved, the first", float(m[0]), 0,
            _MAX_ITER, float(step[0]), float(x[0]),
        )
    return xi


def energy_ratio(n: float, branch: int = 0) -> float:
    """E/V0 for the given strength and branch."""
    return _ratio(solve_even_root(n, branch), n)


def energy_exact(cfg: WellConfig, branch: int = 0) -> BoundState:
    """Fully solved bound state for a physical well configuration.

    xi is solve_even_root's, and eta = n*sin(theta) at the same solve's
    theta = xi - k*pi: at the root cos(theta) = xi/n, so that is
    sqrt(n^2 - xi^2) with no cancellation, on every branch.  It keeps its
    digits in a shallow well, where eta ~ n^2, and next to a threshold,
    where eta ~ k*pi*eps.
    """
    n = well_strength(cfg).strength
    xi, theta = solve_even_root(n, branch, True)
    eta = n * math.sin(theta)
    a = cfg.half_width
    ratio = _ratio(xi, n)
    return BoundState(
        branch=index(branch),  # solve_even_root refuses a non-integer branch
        xi=xi,
        eta=eta,
        alpha=xi / a,
        beta=eta / a,
        energy=ratio * cfg.depth,
        energy_ratio=ratio,
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
    ratio = _ratio(xi, n)
    return GroundStates(
        strength=n, characteristic_length=K, xi=xi, energy=ratio * depth, energy_ratio=ratio
    )


def hydrogen_well() -> WellConfig:
    """Hydrogen-like preset: depth 13.6058 eV, half-width the Bohr radius, electron mass."""
    return WellConfig(0.529e-10, 13.6058 * CONSTANTS.electronvolt, CONSTANTS.electron_mass)
