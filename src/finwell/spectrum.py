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

# Below this strength the ground root is taken from its series, whose first
# omitted term is 12.3 n^17, far under an ulp of xi; below 1e-8 it rounds to n.
SERIES_STRENGTH = 1e-3
# Newton's budget, made once: a range() per scalar solve cost it about 60 ns.
_ITERATIONS = range(200)
_HALF_PI = 0.5 * math.pi  # fl(pi/2), the top of every bracket


class WellConfig(namedtuple("WellConfig", "half_width depth mass")):
    """Physical description of the well, all SI: half_width a [m], depth V0 [J], mass [kg]."""

    __slots__ = ()

    def __new__(cls, half_width: float, depth: float, mass: float) -> WellConfig:
        fields = check_positive("half_width depth mass", half_width, depth, mass)
        return super().__new__(cls, *fields)

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


def _ratio(xi, n):
    # E/V0 = (xi/n)^2; floats or arrays.
    return (xi / n) ** 2


def well_strength(cfg: WellConfig) -> WellStrength:
    """Strength n = a*sqrt(2mV0)/hbar and length scale K = hbar/sqrt(2mV0)."""
    a, m, V0 = cfg.half_width, cfg.mass, cfg.depth
    momentum = math.sqrt(2.0 * m * V0)  # sqrt(2mV0) [kg m/s]
    quantity = "2 m V0"
    if 0.0 < momentum < math.inf:
        n, K = _strength(a, momentum)
        if 0.0 < n < math.inf:
            return WellStrength(n, K)
        quantity = "n = a sqrt(2 m V0)/hbar"
    raise NumericalError(
        f"{quantity} leaves the float range at a = {a:.6g} m, m = {m:.6g} kg, V0 = {V0:.6g} J")


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
    # Branch k needs n > k pi > k; refused before k pi can overflow.
    if branch > n:
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


def solve_even_root(n: float, branch: int = 0) -> float:
    """Root xi of the even-parity condition on the given branch.

    One Newton loop serves every branch k, in theta = xi - k*pi with
    eps = n - k*pi.  k*pi is held as two doubles, so eps keeps its digits
    just above a threshold.  The residual is n*cos(theta) - xi, written
    with no square root, no pole and no cancellation.  It falls and is
    concave on the bracket (0, min(pi/2, eps)), so Newton falls onto the
    root monotonically from its right, and a step from its left lands right
    of it or is clipped to the bracket top.  Branch 0 starts from a series
    of its root (in n^2 below n = 0.7, in 1/(n + 1) above), higher branches
    from acos(k*pi/n) with one trig-free Halley correction, clipped to the
    bracket top.  The Newton point of a step s from theta is accepted when
    s^2 <= theta*ulp(theta)/2, which leaves it within a quarter ulp of the
    root (|g''/g'| < 1/theta), or when the clipped point does not move.
    Below SERIES_STRENGTH the ground root is its series in n.  n is
    checked once, here, and the private core _even_root checks the branch
    and runs the loop.  energy_ratio checks n as this does, energy_exact
    takes well_strength's n, and fitseries' samples take a FitGrid's
    checked points; each calls the core with no second check.
    solve_ground_roots runs the same loop on arrays.
    """
    (n,) = check_positive("n", n)
    return _even_root(n, branch)[0]


def _even_root(n: float, branch: int) -> tuple[float, float]:
    # (xi, theta) on the branch, for a float n in (0, inf) that the caller
    # has checked; eta = n sin(theta).
    try:
        branch = index(branch)
    except TypeError:
        raise DomainError(f"branch must be an integer, got {branch!r}") from None
    if branch < 0:
        raise DomainError("branch must be non-negative")  # str() of a huge int raises
    if branch == 0:
        if n < SERIES_STRENGTH:
            xi = _small_n_series(n)
            return xi, xi
        b = b_lo = 0.0
        eps = n
        hi = n if n < _HALF_PI else _HALF_PI  # min(pi/2, n) without a call
        x = _ground_start(n, math)
    else:
        b, b_lo, eps = _branch_offset(n, branch)
        hi = eps if eps < _HALF_PI else _HALF_PI
        # cos(theta) = xi/n on every branch, so theta0 = acos(k pi/n), here
        # atan2(r, k pi) with r = n sin(theta0) = sqrt(eps (n + k pi)).  At
        # theta0, h = n cos(theta) - k pi - theta is -theta0, h' = -(r + 1)
        # and h'' = -k pi, so a Halley step needs no more trig.  It gives
        # theta0 (r - q)/((r + 1) - q), q = theta0 k pi/(2 (r + 1)), with
        # the ratio formed first so that no intermediate overflows.  As
        # theta0 <= tan(theta0) = r/(k pi), q <= r/(2 (r + 1)) < 1/2 and
        # r - q > r/2 > 0, so the start is positive; past hi (as just above
        # the threshold, where it lands near eps) it is clipped to hi.
        r = math.sqrt(eps) * math.sqrt(n + b)
        t = math.atan2(r, b)
        s = r + 1.0
        q = 0.5 * t * b / s
        x = t * ((r - q) / (s - q))
        if x > hi:
            x = hi
    # The root can lie above hi = fl(pi/2), under half an ulp, from n ~
    # (k + 1/2) 2e15 on; Newton's point is then clipped to hi and stays.
    ulp = math.ulp
    for _ in _ITERATIONS:
        step = _newton_step(x, b, eps, math)
        theta = x - step
        if theta > hi:
            theta = hi
        if step * step <= 0.5 * x * ulp(x) or theta == x:
            return b + (theta + b_lo), theta
        x = theta
    raise _convergence_failure(
        "root unresolved", n, branch, len(_ITERATIONS), step, b + (x + b_lo))


def solve_ground_roots(n: np.ndarray) -> np.ndarray:
    """Branch-0 roots xi for an array of strengths, all solved at once.

    solve_even_root's loop with k = 0 (theta = xi, eps = n) on arrays:
    every row starts from the same series and takes the same Newton steps,
    clip and acceptance, so each row has the scalar root bit for bit.
    Below SERIES_STRENGTH the root is the series itself.
    """
    import numpy as np
    n = np.asarray(n, dtype=float)
    check_positive_columns("n", n)
    xi = _ground_start(n, np)  # the root itself below SERIES_STRENGTH
    rows = np.flatnonzero(n >= SERIES_STRENGTH)
    m, x = n[rows], xi[rows]
    hi = np.minimum(_HALF_PI, m)
    for _ in _ITERATIONS:
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
            len(_ITERATIONS), float(step[0]), float(x[0]),
        )
    return xi


def energy_ratio(n: float, branch: int = 0) -> float:
    """E/V0 for the given strength and branch."""
    (n,) = check_positive("n", n)
    return _ratio(_even_root(n, branch)[0], n)


def energy_exact(cfg: WellConfig, branch: int = 0) -> BoundState:
    """Fully solved bound state for a physical well configuration.

    xi is solve_even_root's, and eta = n*sin(theta) at the same solve's
    theta = xi - k*pi: at the root cos(theta) = xi/n, so that is
    sqrt(n^2 - xi^2) with no cancellation, on every branch.  It keeps its
    digits in a shallow well, where eta ~ n^2, and next to a threshold,
    where eta ~ k*pi*eps.
    """
    n = well_strength(cfg).strength
    xi, theta = _even_root(n, branch)
    eta = n * math.sin(theta)
    a = cfg.half_width
    ratio = _ratio(xi, n)
    # branch, xi, eta, alpha, beta, energy, energy_ratio; _even_root
    # refuses a non-integer branch.
    return BoundState(index(branch), xi, eta, xi / a, eta / a, ratio * cfg.depth, ratio)


def ground_states(
    half_width: np.ndarray, depth: np.ndarray, mass: np.ndarray
) -> GroundStates:
    """Branch-0 n, K, xi and E for equal-length arrays of well parameters.

    The array counterpart of well_strength plus energy_exact: the same
    domain checks and formulas, with one batched root solve.  The first row
    whose 2 m V0 or n leaves the float range raises well_strength's error.
    """
    import numpy as np
    check_positive_columns("half_width depth mass", half_width, depth, mass)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        # A row where 2 m V0 leaves the float range has n = 0 or inf too.
        momentum = np.sqrt(2.0 * mass * depth)
        n, K = _strength(half_width, momentum)
    rows = np.flatnonzero(~(np.isfinite(n) & (n > 0.0)))
    if rows.size:  # well_strength raises for the row, or this does
        i = rows[0]
        well_strength(WellConfig(half_width[i], depth[i], mass[i]))
        raise NumericalError(f"n = {n[i]} leaves the float range in row {i}")
    xi = solve_ground_roots(n)
    ratio = _ratio(xi, n)
    return GroundStates(
        strength=n, characteristic_length=K, xi=xi, energy=ratio * depth, energy_ratio=ratio
    )


def hydrogen_well() -> WellConfig:
    """Hydrogen-like preset: depth 13.6058 eV, half-width the Bohr radius, electron mass."""
    return WellConfig(0.529e-10, 13.6058 * CONSTANTS.electronvolt, CONSTANTS.electron_mass)
