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
    # (b, b_lo, eps) of branch k >= 1: k pi = b + b_lo to about 2^-106
    # relative, and eps = n - k pi, whose only rounding is the last one where
    # n is within a factor 2 of k pi (n - b is then exact).
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


# Each root solve is in theta = xi - k pi, b = fl(k pi) and eps = n - k pi:
# xi sin(xi) - cos(xi) sqrt(n^2 - xi^2) is (-1)^k times
#     f(theta) = xi sin(theta) - cos(theta) sqrt(eps - theta) sqrt(n + xi),
# which rises through the root on (0, min(pi/2, eps)) on every branch.  For
# k = 0 (b = 0, eps = n) it is the xi form, rounded as it.


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


def _newton_step(theta, xi, gap, n, xp):
    # The step f/f' of f(theta) above at xi = b + theta and gap = eps - theta
    # > 0; xp is math for floats, numpy for arrays.  f' > 0 on the bracket,
    # so the step has the sign of f.
    sin, cos = xp.sin(theta), xp.cos(theta)
    eta = xp.sqrt(gap) * xp.sqrt(n + xi)
    return (xi * sin - cos * eta) / (sin * (1.0 + eta) + xi * cos * (1.0 + 1.0 / eta))


def _backward_error(xi: float, n: float) -> float:
    """|f|/|f'| of the pole-free residual in xi: how far xi is from its root."""
    if xi == n:
        return 0.0  # f' is infinite where xi meets n
    return abs(_newton_step(xi, xi, n - xi, n, math))


def _convergence_failure(
    reason: str, n: float, branch: int, iterations: int, lo: float, hi: float, xi: float
) -> ConvergenceFailure:
    return ConvergenceFailure(
        f"{reason} for n={n}, branch={branch}: {iterations} iterations, bracket "
        f"width {hi - lo:.3e}, backward error {_backward_error(xi, n):.3e} at xi={xi!r}"
    )


def solve_even_root(n: float, branch: int = 0, _gap: bool = False) -> float:
    """Root xi of the even-parity condition on the given branch.

    One Newton loop serves every branch k, in theta = xi - k*pi with
    eps = n - k*pi.  k*pi is held as two doubles, so eps keeps its digits
    just above a threshold.  The residual is the pole-free
    xi*sin(theta) - cos(theta)*sqrt(eps - theta)*sqrt(n + xi) ((-1)^k times
    xi*sin(xi) - cos(xi)*sqrt(n^2 - xi^2)), kept inside the bracket
    (0, min(pi/2, eps)) by bisection.  It rises through the one root there
    on every branch, and no residual is evaluated at a bracket end.  Branch
    0 starts from a series of its root (in n^2 below n = 0.7, in 1/(n + 1)
    above), higher branches from acos(k*pi/n) with one trig-free
    correction.  A root is accepted when its Newton step (the backward
    error) is at most ROOT_ULPS_BACKWARD ulps of xi or its bracket at most
    ROOT_ULPS_BRACKET ulps; an accepted Newton point past a bracket end is
    that end.  Next to theta = eps, where the step in theta misleads, Newton
    steps in sqrt(eps - theta) instead.  Below SERIES_STRENGTH the ground
    root is its series in n.  solve_ground_roots takes this loop's plain
    Newton steps on arrays and hands every row that needs a safeguard back
    here, and energy_exact takes eta on k >= 1 from this loop's last theta.
    """
    # _gap is energy_exact's, on a branch k >= 1: it returns (xi, u) with
    # u = sqrt(eps - theta) for eta.  Next to a threshold eps - theta ~
    # k pi eps^2/2 lies far below an ulp of xi, and the theta that the loop
    # accepts leaves it few digits, so Newton's method in u, du = step/(2u),
    # polishes it: the residual is nearly linear in u there and well
    # conditioned everywhere.  theta follows each step by its change,
    # -du (2u + du), not by eps - u^2, which would cancel where eps is large.
    # The polish takes 1 to 5 steps (5 for k near 1e6), so it runs to a step
    # test, on what is left of the loop's iteration budget.  The flag sits on
    # this function, not on a private kernel behind it, because that extra
    # call made every scalar root about 4% slower (CPython 3.11).
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
            return _small_n_series(n)
        b = b_lo = 0.0
        eps = n
    else:
        b, b_lo, eps = _branch_offset(n, branch)
    lo, hi = 0.0, min(_HALF_PI, eps)
    # f(0) = -sqrt(eps) sqrt(n + k pi) < 0 and f(eps) = n sin(eps) > 0.  At
    # hi = fl(pi/2), f(hi) = xi - 6.12e-17 eta, which can be <= 0 only from
    # n ~ (k + 1/2) 2e15 on; the root then lies under half an ulp above hi,
    # and the accepted Newton point past hi is hi.
    if branch == 0:
        x = _ground_start(n, math)
    else:
        # cos(theta) = xi/n on every branch, so theta0 = acos(k pi/n), here
        # atan2(r, k pi) with r = n sin(theta0) = sqrt(eps (n + k pi)).  One
        # Newton step on cos(theta) = (k pi + theta)/n from theta0, with
        # sin(theta0) = r/n, gives theta0 r/(r + 1); just above the threshold
        # that lands near 2 eps, past hi = eps, and the midpoint is taken.
        r = math.sqrt(eps) * math.sqrt(n + b)
        x = math.atan2(r, b) * r / (r + 1.0)
        if x >= hi:
            x = 0.5 * hi
    ulp = math.ulp
    for iterations in range(_MAX_ITER):
        xi = b + x
        u2 = eps - x
        step = _newton_step(x, xi, u2, n, math)
        if step < 0.0:
            lo = x
        else:
            hi = x
        newton = x - step
        inside = lo < newton < hi
        small = abs(step) <= ROOT_ULPS_BACKWARD * ulp(xi)
        if (small or not inside) and abs(step) >= 0.5 * u2:
            # Newton's point in u = sqrt(eps - theta), u -> u + step/(2u), for x
            # next to eps.  There f ~ sqrt(eps - theta), so f' changes over the
            # step: the step in theta overshoots past eps, or, from above the
            # root, is far shorter than the distance to it and can pass the
            # step test many ulp away.  In u the residual is nearly linear.
            newton = x - step * (1.0 + 0.25 * step / u2)
            inside = lo < newton < hi
        elif small:
            # An accepted Newton point past a bracket end is that end.
            theta = newton if inside else hi if newton >= hi else lo
            break
        if hi - lo <= ROOT_ULPS_BRACKET * ulp(b + hi):
            theta = newton if inside else x
            break
        x = newton if inside else 0.5 * (lo + hi)
    else:
        raise _convergence_failure("root unresolved", n, branch, _MAX_ITER, lo, hi, b + (x + b_lo))
    xi = b + (theta + b_lo)
    if not _gap:
        return xi
    if theta < eps:
        u = math.sqrt(eps - theta)
    else:  # the root is the end eps: the first step from u = 0, where f = n sin(eps)
        u = math.tan(eps) * math.sqrt(0.5 * n)
        theta = eps - u * u
    for _ in range(iterations + 1, _MAX_ITER):
        du = _newton_step(theta, b + theta, u * u, n, math) / (2.0 * u)
        theta -= du * (2.0 * u + du)
        u += du
        if abs(du) <= 2.0 * math.ulp(u):
            return xi, u
    raise _convergence_failure("eta unresolved", n, branch, _MAX_ITER, lo, hi, xi)


def solve_ground_roots(n: np.ndarray) -> np.ndarray:
    """Branch-0 roots xi for an array of strengths, all solved at once.

    The vectorised fast path of solve_even_root's loop with k = 0
    (theta = xi, eps = n): every row starts from the same series and takes
    the same plain Newton step, bracket update and step test, and an
    accepted Newton point past a bracket end is that end, so a row accepted
    here has the scalar root bit for bit.  A row stays in the batch only
    while the scalar loop would take that plain step: its Newton point is
    inside the bracket or accepted, the step is under half of n - xi, and
    the bracket has not collapsed.  Any other row is solved by
    solve_even_root itself, with every safeguard.
    Below SERIES_STRENGTH the root is the series itself.
    """
    import numpy as np
    n = np.asarray(n, dtype=float)
    check_positive_columns(n=n)
    xi = _ground_start(n, np)  # the root itself below SERIES_STRENGTH
    rows = np.flatnonzero(n >= SERIES_STRENGTH)
    m, x = n[rows], xi[rows]
    lo = np.zeros_like(m)
    hi = np.minimum(_HALF_PI, m)
    for _ in range(_MAX_ITER):
        if rows.size == 0:
            return xi
        gap = m - x
        step = _newton_step(x, x, gap, m, np)
        below = step < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        # An accepted Newton point past a bracket end is that end; the clip
        # leaves inside exactly the points that were strictly inside.
        newton = np.minimum(np.maximum(x - step, lo), hi)  # np.clip is twice as slow
        inside = (lo < newton) & (newton < hi)
        size = np.abs(step)
        small = size <= ROOT_ULPS_BACKWARD * np.spacing(x)
        # The rows on which the scalar loop takes the plain Newton point.
        plain = (inside | small) & (size < 0.5 * gap)
        done = plain & small
        xi[rows[done]] = newton[done]
        keep = plain & ~small & (hi - lo > ROOT_ULPS_BRACKET * np.spacing(hi))
        for i in rows[~(done | keep)].tolist():
            xi[i] = solve_even_root(float(n[i]))
        x = newton[keep]
        rows, m, lo, hi = rows[keep], m[keep], lo[keep], hi[keep]
    if rows.size:
        raise _convergence_failure(
            f"{rows.size} ground roots unresolved, the first", float(m[0]), 0,
            _MAX_ITER, float(lo[0]), float(hi[0]), float(x[0]),
        )
    return xi


def energy_ratio(n: float, branch: int = 0) -> float:
    """E/V0 for the given strength and branch."""
    return _ratio(solve_even_root(n, branch), n)


def energy_exact(cfg: WellConfig, branch: int = 0) -> BoundState:
    """Fully solved bound state for a physical well configuration.

    xi is solve_even_root's.  On a branch k >= 1, eta comes from the gap
    u = sqrt(eps - theta), eps = n - k*pi and theta = xi - k*pi, which the
    same solve takes from its last theta and refines by Newton's method in
    u, as eta = u*sqrt(n + xi): next to a threshold, where eta ~ k*pi*eps,
    it keeps its digits.  On the ground branch eta is xi*tan(xi) up to
    n = TAN_ETA_STRENGTH and sqrt(n - xi)*sqrt(n + xi) above.
    """
    strength = well_strength(cfg)
    n = strength.strength
    if branch:
        xi, u = solve_even_root(n, branch, True)
        eta = u * math.sqrt(n + xi)
    else:
        xi = solve_even_root(n, branch)
        if n <= TAN_ETA_STRENGTH:
            eta = xi * math.tan(xi)
        else:
            eta = math.sqrt(n - xi) * math.sqrt(n + xi)  # no overflow of n*n
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
