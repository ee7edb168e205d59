"""Wavefunction normalization and in-well interval probabilities.

The in-well profile used throughout is u(x) = 2 C cosh(beta x) with the
exterior decay constant beta; normalizing over |x| <= a gives

    C = 1/(2 sqrt(a)) * (1 + sinh(2 a beta)/(2 a beta))^(-1/2)

and the probability of |x| <= gamma*a (0 <= gamma <= 1) reduces to

    R = (2 a beta gamma + sinh(2 a beta gamma)) / (2 a beta + sinh(2 a beta)).

beta -> 0 is a meaningful physical limit (energy near the top of the well),
so sinh(z)/z and (z + sinh z) expressions carry Taylor guards below |z| =
1e-4 to avoid 0/0.  Above z = 700, where sinh(z) nears overflow, both are
rewritten with exp(-z) so that R and C stay finite for every z.  The
small-beta expansion of R,

    R = gamma * (1 + (a beta)^2 (gamma^2 - 1) / 3),

is provided verbatim alongside the closed form.  Note cosh is even in x, so
all formulas here are internally consistent, even though the conventional
even interior solution of a finite well oscillates; see README for the
physics note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, FitOutOfRange, NumericalError, PoleSingularity
from .fitseries import FitCoefficients, _series_value, eval_fit
from .pressure import pressure_1d
from .spectrum import WellConfig, well_strength
from .units import CONSTANTS

_TAYLOR_Z = 1e-4   # |2 a beta| below this switches to series forms
_EXP_Z = 700.0     # 2 a beta above this switches to exp(-z) forms
_FD_STEP = 1e-6    # relative step for the numerical dR/dP
_DPDA_RTOL = 1e-12


class ProbabilityMethod(Enum):
    CLOSED_FORM = "closed_form"
    SMALL_BETA = "small_beta"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class WavefunctionNorm:
    """Normalization constant C [m^-1/2] with its defining (a, beta)."""

    C: float
    beta: float  # [1/m]
    a: float     # [m]


@dataclass(frozen=True)
class ProbabilityResult:
    probability: float  # R
    gamma: float
    method: ProbabilityMethod


def _sinhc(z: float) -> float:
    # sinh(z)/z with its removable singularity filled in
    if abs(z) < _TAYLOR_Z:
        z2 = z * z
        return 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return math.sinh(z) / z


def _r_series(z, gamma):
    # (z g + sinh(z g)) / (z + sinh z) via the series of sinh
    zg = z * gamma
    num = gamma * (2.0 + zg * zg / 6.0 + zg ** 4 / 120.0)
    den = 2.0 + z * z / 6.0 + z ** 4 / 120.0
    return num / den


def _r_sinh(z, gamma, xp):
    # xp is math for floats, numpy for arrays
    return (z * gamma + xp.sinh(z * gamma)) / (z + xp.sinh(z))


def _r_exp(z, gamma, xp):
    # _r_sinh with top and bottom times 2 exp(-z); no term overflows, and
    # gamma = 1 gives top == bottom exactly.
    zez = z * xp.exp(-z)
    num = 2.0 * zez * gamma - xp.exp(z * gamma - z) * xp.expm1(-2.0 * z * gamma)
    den = 2.0 * zez - xp.expm1(-2.0 * z)
    return num / den


def beta_from_energy(E: float, m: float, V0: float) -> float:
    """Exterior decay constant beta = sqrt(2 m (V0 - E))/hbar  [1/m]."""
    if not math.isfinite(m) or m <= 0.0 or not math.isfinite(V0) or V0 <= 0.0:
        raise DomainError(f"mass and depth must be positive, got m={m}, V0={V0}")
    if not 0.0 <= E <= V0:
        raise DomainError(f"bound-state energy must satisfy 0 <= E <= V0, got {E}")
    return math.sqrt(2.0 * m * (V0 - E)) / CONSTANTS.hbar


def beta_from_fit(
    a: float, K: float, coeffs: FitCoefficients, m: float, V0: float
) -> float:
    """beta from the fitted energy: sqrt((2m/hbar^2) V0 [1 - sum c_i (K/a)^i]).

    Raises FitOutOfRange when the bracket goes negative, i.e. the series was
    evaluated where it extrapolates to E > V0.
    """
    if a <= 0.0 or K <= 0.0:
        raise DomainError(f"lengths must be positive, got a={a}, K={K}")
    bracket = 1.0 - eval_fit(coeffs, a / K)
    if bracket < 0.0:
        raise FitOutOfRange(
            f"fitted E/V0 exceeds 1 at a/K = {a / K:.6g} (bracket {bracket:.3e})"
        )
    return math.sqrt(2.0 * m * V0 * bracket) / CONSTANTS.hbar


def normalization_constant(a: float, beta: float) -> WavefunctionNorm:
    """C such that the interval probability over the whole well is one."""
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"half-width must be positive, got {a}")
    if not math.isfinite(beta) or beta < 0.0:
        raise DomainError(f"decay constant must be non-negative, got {beta}")
    z = 2.0 * a * beta
    if z > _EXP_Z:
        # 1 + sinh(z)/z = exp(z) * (exp(-z) - expm1(-2z)/(2z))
        tail = math.exp(-z) - math.expm1(-2.0 * z) / (2.0 * z)
        C = math.exp(-0.5 * z) / (2.0 * math.sqrt(a) * math.sqrt(tail))
    else:
        C = 1.0 / (2.0 * math.sqrt(a) * math.sqrt(1.0 + _sinhc(z)))
    return WavefunctionNorm(C=C, beta=beta, a=a)


def wavefunction(x: float, norm: WavefunctionNorm) -> float:
    """u(x) = 2 C cosh(beta x)  [m^-1/2], defined on |x| <= a."""
    if abs(x) > norm.a:
        raise DomainError(f"|x| = {abs(x):.6g} outside the well half-width {norm.a:.6g}")
    return 2.0 * norm.C * math.cosh(norm.beta * x)


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")


def probability_interval(a: float, beta: float, gamma: float) -> ProbabilityResult:
    """Closed-form probability of |x| <= gamma*a."""
    _check_gamma(gamma)
    if a <= 0.0:
        raise DomainError(f"half-width must be positive, got {a}")
    if beta < 0.0:
        raise DomainError(f"decay constant must be non-negative, got {beta}")
    z = 2.0 * a * beta
    if z < _TAYLOR_Z:
        r = _r_series(z, gamma)
    elif z <= _EXP_Z:
        r = _r_sinh(z, gamma, math)
    else:
        r = _r_exp(z, gamma, math)
    return ProbabilityResult(probability=r, gamma=gamma,
                             method=ProbabilityMethod.CLOSED_FORM)


def probability_columns(
    a: np.ndarray, K: np.ndarray, coeffs: FitCoefficients,
    m: np.ndarray, V0: np.ndarray, gamma: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(R, fit_out_of_range) for equal-length arrays, beta from the fit.

    The array counterpart of beta_from_fit plus probability_interval.  Rows
    where the fit predicts E > V0 are flagged instead of raising and their
    R is NaN; the other rows get the closed form and the same domain checks.
    """
    n = a / K
    bad = np.flatnonzero(~(np.isfinite(n) & (n > 0.0)))
    if bad.size:
        raise DomainError(f"strength n must be positive, got {n[bad[0]]}")
    with np.errstate(over="ignore"):
        # An overflowing series is out of range or caught below.
        bracket = 1.0 - _series_value(coeffs.c, n)
    out_of_range = bracket < 0.0
    rows = np.flatnonzero(~out_of_range)
    g = gamma[rows]
    bad = np.flatnonzero(~((0.0 <= g) & (g <= 1.0)))
    if bad.size:
        raise DomainError(f"gamma must lie in [0, 1], got {g[bad[0]]}")
    with np.errstate(over="ignore", invalid="ignore"):
        # A non-finite bracket or beta makes R non-finite, reported below.
        beta = np.sqrt(2.0 * m[rows] * V0[rows] * bracket[rows]) / CONSTANTS.hbar
        z = 2.0 * a[rows] * beta
        r = np.empty_like(z)
        series, exp = z < _TAYLOR_Z, z > _EXP_Z
        closed = ~(series | exp)
        r[series] = _r_series(z[series], g[series])
        r[closed] = _r_sinh(z[closed], g[closed], np)
        r[exp] = _r_exp(z[exp], g[exp], np)
    bad = np.flatnonzero(~np.isfinite(r))
    if bad.size:
        raise NumericalError(f"R is not finite at a/K = {n[rows[bad[0]]]:.6g}")
    R = np.full_like(n, math.nan)
    R[rows] = r
    return R, out_of_range


def probability_small_beta(a: float, beta: float, gamma: float) -> ProbabilityResult:
    """Small-beta expansion R = gamma (1 + (a beta)^2 (gamma^2 - 1)/3)."""
    _check_gamma(gamma)
    if a <= 0.0:
        raise DomainError(f"half-width must be positive, got {a}")
    if beta < 0.0:
        raise DomainError(f"decay constant must be non-negative, got {beta}")
    ab = a * beta
    r = gamma * (1.0 + ab * ab * (gamma * gamma - 1.0) / 3.0)
    return ProbabilityResult(probability=r, gamma=gamma,
                             method=ProbabilityMethod.SMALL_BETA)


def probability_pressure_derivative(
    cfg: WellConfig, coeffs: FitCoefficients, gamma: float
) -> float:
    """dR/dP [1/N] at the configured well, by central differences.

    Both partials are taken through the composed maps a -> beta(a) -> R and
    a -> P(a) with the fitted beta, step 1e-6 * a.  Raises PoleSingularity
    when dP/da vanishes at this width (the dE/dP pole), and propagates
    FitOutOfRange from the beta evaluation.
    """
    _check_gamma(gamma)
    K = well_strength(cfg).characteristic_length
    a = cfg.half_width
    h = _FD_STEP * a

    def prob_at(width: float) -> float:
        beta = beta_from_fit(width, K, coeffs, cfg.mass, cfg.depth)
        return probability_interval(width, beta, gamma).probability

    p_hi = pressure_1d(a + h, K, coeffs, cfg.depth)
    p_lo = pressure_1d(a - h, K, coeffs, cfg.depth)
    dp = p_hi - p_lo
    if abs(dp) <= _DPDA_RTOL * max(abs(p_hi), abs(p_lo)):
        raise PoleSingularity(f"dP/da vanishes at a = {a:.6g} m; dR/dP undefined")
    dr = prob_at(a + h) - prob_at(a - h)
    return dr / dp
