"""In-well interval probabilities and their pressure derivative.

The in-well profile used throughout is u(x) proportional to cosh(beta x) with
the exterior decay constant beta, taken from the fitted energy (beta_from_fit)
or from a solved level (spectrum.BoundState.beta).  The probability of
|x| <= gamma*a (0 <= gamma <= 1) relative to the whole well reduces to

    R = (2 a beta gamma + sinh(2 a beta gamma)) / (2 a beta + sinh(2 a beta)).

beta -> 0 is a meaningful physical limit (energy near the top of the well),
so with z = 2 a beta and sinhc(x) = sinh(x)/x (1 at x = 0) R is evaluated as

    R = gamma (1 + sinhc(z gamma)) / (1 + sinhc(z)),

which neither cancels nor divides 0 by 0, and keeps its digits where z gamma
is tiny or subnormal.  Above z = 700, where sinh(z) nears overflow, R is
rewritten with exp(-z) so that it stays finite for every z:

    R = (2 z gamma e^-z - e^(z (gamma - 1)) expm1(-2 z gamma)) / (2 z e^-z - expm1(-2 z)).

Its exponent z (gamma - 1) is exact for gamma >= 1/2, so R's relative error
stays near z (1 - gamma) eps, a few eps where gamma is close to 1.  One
helper, _r, picks the form by z for floats and arrays alike.  Note cosh is
even in x, so all formulas here are internally consistent, even though the
conventional even interior solution of a finite well oscillates; see README
for the physics note.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, FitOutOfRange, NumericalError, check_finite, value_text
from .errors import check_columns, check_non_negative, check_positive, check_positive_columns
from .fitseries import FitCoefficients, _horner
from .pressure import _rational_parts, pressure_1d
from .spectrum import WellConfig, well_strength
from .units import CONSTANTS

_EXP_Z = 700.0     # 2 a beta above this switches to exp(-z) forms
# Q(w) (1 + sinh(w)/w) in powers of w^2 to 1e-18 for w <= 1: 2k/(2k+1)!, k = 1..9.
_Q_SERIES = tuple(2 * k / math.factorial(2 * k + 1) for k in range(1, 10))


# The in-well probability R of |x| <= gamma*a, and gamma.
ProbabilityResult = namedtuple("ProbabilityResult", "probability gamma")


def _sinhc(x: float) -> float:
    # sinh(x)/x, 1 at x = 0
    return math.sinh(x) / x if x else 1.0


def _r_exp(z, gamma, xp, log_scale=0.0):
    # (z g + sinh(z g))/(z + sinh z) with top and bottom times 2 exp(-z): no
    # term overflows, and gamma = 1 gives top == bottom exactly.  log_scale
    # folded into the top's exponents gives R exp(log_scale), normal where R
    # alone is subnormal.
    # The exponent -z (1 - gamma) is formed as z (gamma - 1), exact for
    # gamma >= 1/2; z gamma - z would carry an error of ulp(z) into it.
    num = (2.0 * (z * xp.exp(log_scale - z)) * gamma
           - xp.exp(z * (gamma - 1.0) + log_scale) * xp.expm1(-2.0 * (z * gamma)))
    den = 2.0 * (z * xp.exp(-z)) - xp.expm1(-2.0 * z)
    return num / den


def _r(z, gamma, xp):
    # R at z = 2 a beta >= 0, at most gamma: R <= gamma holds exactly, but
    # next to gamma = 1 rounding can put R an ulp above.  xp is math for
    # floats, numpy for arrays, whose rows each take their own form.
    if xp is math:
        if z <= _EXP_Z:
            r = gamma * (1.0 + _sinhc(z * gamma)) / (1.0 + _sinhc(z))
        else:
            r = _r_exp(z, gamma, math)
        return gamma if r > gamma else r  # min(r, gamma), NaN included, without a call
    zg = z * gamma
    sinhc_zg = xp.where(zg == 0.0, 1.0, xp.sinh(zg) / zg)
    sinhc_z = xp.where(z == 0.0, 1.0, xp.sinh(z) / z)
    r = xp.where(z <= _EXP_Z, gamma * (1.0 + sinhc_zg) / (1.0 + sinhc_z), _r_exp(z, gamma, xp))
    return xp.minimum(r, gamma)


def _fit_beta(c, n, m, V0, xp):
    # The fit's bracket 1 - sum c_i n^-i (its 1 - E/V0) and beta = sqrt(2 m V0
    # bracket)/hbar, NaN where the bracket is negative (the fit predicts E >
    # V0).  xp is math for floats, numpy for arrays.
    bracket = 1.0 - _horner(c, 1.0 / n)
    if xp is math and bracket < 0.0:
        return bracket, math.nan
    return bracket, xp.sqrt(2.0 * m * V0 * bracket) / CONSTANTS.hbar


def beta_from_fit(
    a: float, K: float, coeffs: FitCoefficients, m: float, V0: float
) -> float:
    """beta from the fitted energy: sqrt((2m/hbar^2) V0 [1 - sum c_i (K/a)^i]).

    Raises FitOutOfRange when the bracket goes negative, i.e. the series was
    evaluated where it extrapolates to E > V0, NumericalError where it or beta overflows.
    """
    a, K, m, V0 = check_positive("a K m V0", a, K, m, V0)
    (n,) = check_positive("n", a / K)
    bracket, beta = _fit_beta(coeffs.c, n, m, V0, math)
    check_finite(bracket, "fitted series", "n", n)
    if bracket < 0.0:
        raise FitOutOfRange(f"fitted E/V0 exceeds 1 at a/K = {n:.6g} (bracket {bracket:.3e})")
    if not math.isfinite(beta):  # 2 m V0 overflows for large finite m and V0
        raise NumericalError(f"beta overflows at m = {m:.6g} kg, V0 = {V0:.6g} J")
    return beta


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {value_text(gamma)}")


def probability_interval(a: float, beta: float, gamma: float) -> ProbabilityResult:
    """Closed-form probability of |x| <= gamma*a."""
    _check_gamma(gamma)
    (a,) = check_positive("a", a)
    beta, gamma = check_non_negative("beta gamma", beta, gamma)  # gamma as a float
    z = 2.0 * a * beta
    if z == math.inf:
        raise NumericalError(f"2 a beta overflows at a = {a:.6g} m, beta = {beta:.6g} 1/m")
    return ProbabilityResult(_r(z, gamma, math), gamma)


def probability_columns(
    a: np.ndarray, K: np.ndarray, coeffs: FitCoefficients,
    m: np.ndarray, V0: np.ndarray, gamma: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, fit_out_of_range, overflow) for equal-length arrays, beta from the fit.

    The array counterpart of beta_from_fit plus probability_interval.  Rows
    where the fit predicts E > V0, and rows where the bracket, beta or 2 a beta
    leaves the float range (with the published set, for a/K below about 1e-61),
    are flagged instead of raising and their R is NaN; the other rows get the
    closed form and the same domain checks.  gamma is checked on every row,
    flagged or not.
    """
    import numpy as np
    check_columns("a gamma", a, gamma)
    check_positive_columns("a K m V0", a, K, m, V0)
    n = a / K
    check_positive_columns("n", n)
    bad = np.flatnonzero(~((0.0 <= gamma) & (gamma <= 1.0)))
    if bad.size:
        _check_gamma(gamma[bad[0]])
    with np.errstate(over="ignore", invalid="ignore"):
        # An overflowing series is flagged below; a form that overflows
        # outside its band of z is not selected there.
        bracket, beta = _fit_beta(coeffs.c, n, m, V0, np)
        out_of_range = bracket < 0.0
        z = 2.0 * a * beta
        overflow = ~(out_of_range | np.isfinite(z))
        flagged = out_of_range | overflow
        R = np.where(flagged, math.nan, _r(z, gamma, np))
    bad = np.flatnonzero(~(flagged | np.isfinite(R)))
    if bad.size:
        raise NumericalError(f"R is not finite at a/K = {n[bad[0]]:.6g}")
    return R, out_of_range, overflow


def _q(w: float) -> float:
    # Q(w) = (w cosh w - sinh w)/(w^2 (w + sinh w)) for w >= 0; no term overflows.
    if w <= 1.0:
        return _horner(_Q_SERIES, w * w) / (1.0 + _sinhc(w))
    return (w / math.tanh(w) - 1.0) / (w * w * (1.0 - 2.0 * w * math.exp(-w) / math.expm1(-2.0 * w)))


def probability_pressure_derivative(
    cfg: WellConfig, coeffs: FitCoefficients, gamma: float
) -> float:
    """dR/dP [1/N] at the configured well, in closed form.

    dR/dP = (dR/da)/(dP/da) through a -> beta(a) -> R and a -> P(a), beta from
    the fit.  dR/da = R z dz/da (gamma^2 Q(gamma z) - Q(z)) with z dz/da =
    4 a (beta^2 + a m P/hbar^2), and dP/da = -2 V0 den (K/a)^5/a^2 with den
    the dE/dP denominator.  Raises PoleSingularity and NumericalError where
    denergy_dpressure does; propagates FitOutOfRange from beta_from_fit.
    """
    _check_gamma(gamma)
    (gamma,) = check_non_negative("gamma", gamma)  # as a float
    K = well_strength(cfg).characteristic_length
    a, m, V0 = cfg.half_width, cfg.mass, cfg.depth
    _, den = _rational_parts(a, K, coeffs, "consistent")  # raises where dP/da = 0
    beta = beta_from_fit(a, K, coeffs, m, V0)
    z, u = 2.0 * a * beta, K / a
    zdz_da = 4.0 * a * (beta * beta + a * m * pressure_1d(a, K, coeffs, V0) / CONSTANTS.hbar ** 2)
    # -dP/da; den u^4, near c1 for wide wells, is formed before u^5 can underflow.
    dp_da = 2.0 * V0 * (den * u * u * u * u) * u / a / a
    drdp = (_q(z) - gamma * gamma * _q(gamma * z)) * zdz_da / dp_da if dp_da else math.nan
    if z > _EXP_Z and 0.0 < abs(drdp) < math.inf:
        # R, the one factor that can underflow, can be subnormal up here: fold
        # log|dR/dP / R| into the exponents of _r_exp's top through log_scale.
        # Neither exponent exceeds that finite log, so neither overflows.
        drdp = math.copysign(_r_exp(z, gamma, math, math.log(abs(drdp))), drdp)
    else:
        drdp *= _r(z, gamma, math)
    if not math.isfinite(drdp):
        raise NumericalError(f"dR/dP leaves the float range at a/K = {a / K:.6g}")
    return drdp
