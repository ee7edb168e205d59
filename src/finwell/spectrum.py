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
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainError, NoSuchBranch
from .units import CONSTANTS, HYDROGEN_DEPTH, HYDROGEN_HALF_WIDTH, HYDROGEN_MASS

# A root is accepted when its backward error |f|/|f'| is at most
# ROOT_ULPS_BACKWARD ulps of xi, or when its bracket has shrunk to
# ROOT_ULPS_BRACKET ulps.
ROOT_ULPS_BACKWARD = 8.0
ROOT_ULPS_BRACKET = 4.0
# Below this strength the ground root is taken from its series, whose first
# omitted term is 0.75 n^7, under 1e-18 of xi; below 1e-8 the series rounds to n.
SERIES_STRENGTH = 1e-3
_MAX_ITER = 200


@dataclass(frozen=True)
class WellConfig:
    """Physical description of the well, all SI."""

    half_width: float  # a [m]
    depth: float       # V0 [J]
    mass: float        # [kg]

    def __post_init__(self) -> None:
        for name, value in (
            ("half_width", self.half_width),
            ("depth", self.depth),
            ("mass", self.mass),
        ):
            if not math.isfinite(value) or value <= 0.0:
                raise DomainError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class WellStrength:
    """Dimensionless strength n and the natural length scale K = hbar/sqrt(2mV0)."""

    strength: float            # n
    characteristic_length: float  # K [m]


@dataclass(frozen=True)
class BoundState:
    """One solved even-parity level.

    xi is the interior phase alpha*a, eta the exterior decay phase beta*a;
    alpha [1/m] is the interior wavenumber and beta [1/m] the exterior decay
    constant.  xi^2 + eta^2 = n^2 and E = (xi/n)^2 * V0.
    """

    branch: int
    xi: float
    eta: float
    alpha: float   # [1/m]
    beta: float    # [1/m]
    energy: float  # [J]


@dataclass(frozen=True)
class GroundStates:
    """Branch-0 columns of a batch of wells, one entry per well."""

    strength: np.ndarray               # n
    characteristic_length: np.ndarray  # K [m]
    xi: np.ndarray
    energy: np.ndarray                 # E [J]


def _strength(a, momentum):
    # (n, K) from the half-width and sqrt(2 m V0); floats or arrays.
    return a * momentum / CONSTANTS.hbar, CONSTANTS.hbar / momentum


def _energy(xi, n, V0):
    return (xi / n) ** 2 * V0


def well_strength(cfg: WellConfig) -> WellStrength:
    """Strength n = a*sqrt(2mV0)/hbar and length scale K = hbar/sqrt(2mV0)."""
    momentum = math.sqrt(2.0 * cfg.mass * cfg.depth)  # sqrt(2mV0) [kg m/s]
    n, K = _strength(cfg.half_width, momentum)
    return WellStrength(strength=n, characteristic_length=K)


def _branch_bracket(n: float, branch: int) -> tuple[float, float]:
    lo = branch * math.pi
    hi = min(lo + 0.5 * math.pi, n)
    if hi <= lo:
        raise NoSuchBranch(
            f"branch {branch} needs strength n > {lo:.6g}, got n = {n:.6g}"
        )
    return lo, hi


def _stable_residual(xi: float, n: float) -> float:
    # cos(xi) * (xi*tan(xi) - sqrt(n^2 - xi^2)): same roots, no tan pole.
    # sqrt(n - xi) * sqrt(n + xi) neither cancels near xi = n nor overflows.
    return xi * math.sin(xi) - math.cos(xi) * math.sqrt(n - xi) * math.sqrt(n + xi)


def _series_root(n):
    # Ground root of xi*tan(xi) = sqrt(n^2 - xi^2) for small n, floats or arrays.
    return n - n * n * n * (0.5 - 13.0 / 24.0 * n * n)


def _backward_error(xi: float, n: float) -> float:
    """|f|/|f'| of the pole-free residual: how far xi is from its root."""
    sin, cos = math.sin(xi), math.cos(xi)
    eta = math.sqrt(n - xi) * math.sqrt(n + xi)
    if eta == 0.0:
        return 0.0  # f' is infinite where xi meets n
    slope = sin * (1.0 + eta) + xi * cos * (1.0 + 1.0 / eta)
    return abs(xi * sin - cos * eta) / abs(slope)


def _accepted(xi: float, n: float) -> bool:
    return _backward_error(xi, n) <= ROOT_ULPS_BACKWARD * math.ulp(xi)


def solve_even_root(n: float, branch: int = 0) -> float:
    """Root xi of the even-parity condition on the given branch.

    Bracketed bisection with a safeguarded secant step, applied to the
    pole-free form xi*sin(xi) - cos(xi)*sqrt(n^2 - xi^2).  The bracket
    (k*pi, min(k*pi + pi/2, n)) contains exactly one root, at which the
    residual changes sign monotonically.  A root is accepted by its backward
    error or its final bracket width (ROOT_ULPS_BACKWARD, ROOT_ULPS_BRACKET);
    below SERIES_STRENGTH the ground root comes from its series in n.
    """
    if not math.isfinite(n) or n <= 0.0:
        raise DomainError(f"strength n must be positive, got {n}")
    if branch < 0:
        raise DomainError(f"branch must be non-negative, got {branch}")
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
            if _accepted(end, n):
                return end
        raise ConvergenceFailure(
            f"no sign change on ({lo!r}, {hi!r}) for n={n}, branch={branch}"
        )

    x0, f0 = lo, f_lo
    x1, f1 = hi, f_hi
    root = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        # Secant proposal from the two most recent points, guarded to stay
        # strictly inside the current bracket; otherwise bisect.
        if f1 != f0:
            candidate = x1 - f1 * (x1 - x0) / (f1 - f0)
        else:
            candidate = 0.5 * (lo + hi)
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        f_cand = _stable_residual(candidate, n)
        x0, f0 = x1, f1
        x1, f1 = candidate, f_cand
        root = candidate
        if f_cand == 0.0:
            break
        if (f_cand > 0.0) == (f_hi > 0.0):
            hi, f_hi = candidate, f_cand
        else:
            lo, f_lo = candidate, f_cand
        if hi - lo <= ROOT_ULPS_BRACKET * math.ulp(hi):
            return lo if abs(f_lo) < abs(f_hi) else hi

    if not _accepted(root, n):
        raise ConvergenceFailure(
            f"backward error {_backward_error(root, n):.3e} of xi={root!r} exceeds "
            f"{ROOT_ULPS_BACKWARD:g} ulp for n={n}, branch={branch}"
        )
    return root


def solve_ground_roots(n: np.ndarray) -> np.ndarray:
    """Branch-0 roots xi for an array of strengths, all solved at once.

    Newton's method on the pole-free residual, kept inside each row's
    bracket (0, min(pi/2, n)) by bisection, from the start
    min(pi/2 * n/(n+1), n/sqrt(1+n)).  A row is accepted by the rule of
    solve_even_root: a Newton step of at most ROOT_ULPS_BACKWARD ulps (the
    backward error), or a bracket of at most ROOT_ULPS_BRACKET ulps.  Below
    SERIES_STRENGTH the root comes from its series, as in solve_even_root.
    """
    n = np.asarray(n, dtype=float)
    bad = ~(np.isfinite(n) & (n > 0.0))
    if bad.any():
        raise DomainError(f"strength n must be positive, got {n[bad][0]}")
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
        sin, cos = np.sin(x), np.cos(x)
        eta = np.sqrt(m - x) * np.sqrt(m + x)
        f = x * sin - cos * eta
        step = f / (sin * (1.0 + eta) + x * cos * (1.0 + 1.0 / eta))
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
        raise ConvergenceFailure(
            f"{rows.size} ground roots unresolved after {_MAX_ITER} steps, "
            f"first at n={n[rows[0]]}"
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
    eta = math.sqrt(max(n * n - xi * xi, 0.0))
    a = cfg.half_width
    return BoundState(
        branch=branch,
        xi=xi,
        eta=eta,
        alpha=xi / a,
        beta=eta / a,
        energy=_energy(xi, n, cfg.depth),
    )


def _check_positive_columns(**columns: np.ndarray) -> None:
    # The WellConfig check, reporting the first offending row.
    bad = [~(np.isfinite(v) & (v > 0.0)) for v in columns.values()]
    rows = np.flatnonzero(np.logical_or.reduce(bad))
    if rows.size:
        row = rows[0]
        for (name, values), mask in zip(columns.items(), bad):
            if mask[row]:
                raise DomainError(f"{name} must be positive and finite, got {values[row]}")


def ground_states(
    half_width: np.ndarray, depth: np.ndarray, mass: np.ndarray
) -> GroundStates:
    """Branch-0 n, K, xi and E for equal-length arrays of well parameters.

    The array counterpart of well_strength plus energy_exact: the same
    domain checks and formulas, with one batched root solve.
    """
    _check_positive_columns(half_width=half_width, depth=depth, mass=mass)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        # 2 m V0 may leave the float range; n then fails the domain check
        # of solve_ground_roots.
        n, K = _strength(half_width, np.sqrt(2.0 * mass * depth))
    xi = solve_ground_roots(n)
    return GroundStates(
        strength=n, characteristic_length=K, xi=xi, energy=_energy(xi, n, depth)
    )


def hydrogen_well() -> WellConfig:
    """Hydrogen-like preset: depth 13.6058 eV, half-width the Bohr radius, electron mass."""
    return WellConfig(
        half_width=HYDROGEN_HALF_WIDTH.value,
        depth=HYDROGEN_DEPTH.value,
        mass=HYDROGEN_MASS.value,
    )
