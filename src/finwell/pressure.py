"""Pressure calculus of the fitted ground-state energy.

With E(a) = V0 * sum_i c_i (K/a)^i the 1D pressure is P = -dE/da, a force,
and the pressure derivative of the energy is the rational function

    dE/dP = (dE/da) / (dP/da)
          = (a/2) * (c1 a^4 + 2 c2 K a^3 + 3 c3 K^2 a^2 + 4 c4 K^3 a + 5 c5 K^4)
                  / (c1 a^4 + 3 c2 K a^3 + 6 c3 K^2 a^2 + 10 c4 K^3 a + 15 c5 K^4).

Three printed formulas in the source material disagree with this calculus
and are kept available verbatim as the ``printed`` variants:

* the pressure series as printed omits the V0 factor (restored here;
  ``pressure_1d`` always includes it),
* the printed rational form has denominator leading term 2*c1*a^4, giving a
  K->0 limit of a/4 instead of a/2,
* the printed small-K expansion's second-order term carries (c2^2 - c3^2)
  where the calculus gives (c2^2 - c1*c3).

The small-width expansion  a/6 + (1/45)(c4/c5) a^2/K  does agree with the
calculus; its zero  a0 = -7.5 (c5/c4) K  is the published critical width.
The ``consistent`` variants are the default everywhere; the CLI exposes the
``printed`` ones for verbatim reproduction and for the verify report.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .errors import DomainError, NoRoot, NumericalError, PoleSingularity
from .errors import check_finite, check_non_negative, check_positive, check_positive_columns
from .fitseries import FitCoefficients, _horner

POLE_RTOL = 1e-12          # |denominator| below this times its largest term -> pole
TIE_RTOL = 1e-12           # relative width of the classification tie band
_MAX_T = 20.0              # the numeric critical width is sought in t = a/K on (0, _MAX_T]


class Response(Enum):
    IONIZES = "Ionizes"
    PUSHED_DEEPER = "PushedDeeper"


# Pressure state at one half-width a [m]: pressure P [N], dedp and
# dedp_printed, the consistent and printed dE/dP [m] (NaN at a pole), and
# near_pole.
PressureProfile = namedtuple("PressureProfile", "half_width pressure dedp dedp_printed near_pole")

# Critical half-width estimates, in meters.  a0_paper is the zero of the
# small-width expansion, -7.5*(c5/c4)*K; a0_numeric and pole_location come
# from root-finding the full rational form and are None unless
# method="numeric".
CriticalWidthReport = namedtuple("CriticalWidthReport", "a0_paper a0_numeric pole_location")

# classify_response's outcome, whether a lies within TIE_RTOL of a0
# (at_boundary), and the a0 [m] it was compared with.
ResponseReport = namedtuple("ResponseReport", "outcome at_boundary critical_half_width")


def _pressure(a, K, c, V0):
    # V0 * sum_i i c_i K^i / a^(i+1) by Horner in K/a; floats or arrays.
    u = K / a
    return V0 * (_horner((c[1], 2 * c[2], 3 * c[3], 4 * c[4], 5 * c[5]), u) * u) / a


def pressure_1d(a: float, K: float, coeffs: FitCoefficients, V0: float) -> float:
    """P = V0 * sum_{i=1..5} i c_i K^i / a^(i+1)  [N].

    The V0 factor missing from the printed series is restored; dimensional
    analysis of E = V0 * sum c_i (K/a)^i forces it.  Raises NumericalError
    when P leaves the float range (a far below K).
    """
    a, K, V0 = check_positive("a K V0", a, K, V0)
    return check_finite(_pressure(a, K, coeffs.c, V0), "pressure", "a/K", a / K)


def _variant_error(variant: str) -> DomainError:
    return DomainError(f"variant must be 'printed' or 'consistent', got {variant!r}")


def _rational_coefficients(c, variant: str = "consistent") -> tuple[tuple, tuple]:
    # Ascending coefficients in t = a/K of the dE/dP numerator and denominator;
    # DomainError for a variant that is neither form.
    if variant == "consistent":
        lead = c[1]
    elif variant == "printed":
        lead = 2.0 * c[1]
    else:
        raise _variant_error(variant)
    return (
        (5.0 * c[5], 4.0 * c[4], 3.0 * c[3], 2.0 * c[2], c[1]),
        (15.0 * c[5], 10.0 * c[4], 6.0 * c[3], 3.0 * c[2], lead),
    )


def _sum2(x0, x1, x2, x3, x4):
    # x0 + x1 + x2 + x3 + x4 by Sum2 (Ogita, Rump and Oishi 2005), left to
    # right: each addition's exact error, by TwoSum, is summed apart and added
    # last.  The error starts as 0.0 + e1, as a loop from error = 0.0 does, so
    # that signed zeros come out as in that form.  Floats or arrays.
    s = x0 + x1
    b = s - x0
    e = 0.0 + ((x0 - (s - b)) + (x1 - b))
    t = s + x2
    b = t - s
    e = e + ((s - (t - b)) + (x2 - b))
    s = t + x3
    b = s - t
    e = e + ((t - (s - b)) + (x3 - b))
    t = s + x4
    b = t - s
    e = e + ((s - (t - b)) + (x4 - b))
    return t + e


def _rational_sums(t, c, variant: str):
    # (numerator, denominator, near_pole) of dE/dP in t = a/K; floats or arrays.
    # Powers by multiplication: numpy's ** may round differently from libm.
    # Each sum is one _sum2 over the five terms, constant term first.  That is
    # as accurate as summing in twice the precision; a plain sum is 3e-7 off
    # at 1e-9 from the pole.  A term or sum that overflows leaves num or den
    # non-finite.  The pole rule: den is 0, or below POLE_RTOL times one of
    # its terms.
    (n0, n1, n2, n3, n4), (d0, d1, d2, d3, d4) = _rational_coefficients(c, variant)
    t2 = t * t
    t3, t4 = t2 * t, t2 * t2
    num = _sum2(n0, n1 * t, n2 * t2, n3 * t3, n4 * t4)
    d1, d2, d3, d4 = d1 * t, d2 * t2, d3 * t3, d4 * t4
    den = _sum2(d0, d1, d2, d3, d4)
    size = abs(den)
    near_pole = ((den == 0.0) | (size < POLE_RTOL * abs(d0)) | (size < POLE_RTOL * abs(d1))
                 | (size < POLE_RTOL * abs(d2)) | (size < POLE_RTOL * abs(d3))
                 | (size < POLE_RTOL * abs(d4)))
    return num, den, near_pole


def _small_width_zero(c, K: float) -> float | None:
    # a0 = -7.5 (c5/c4) K, the zero of the small-width expansion; None if c4 = 0.
    if c[4] == 0.0:
        return None
    return check_finite(-7.5 * (c[5] / c[4]) * K, "critical width -7.5 (c5/c4) K", "K", K)


def _rational_parts(
    a: float, K: float, coeffs: FitCoefficients, variant: str
) -> tuple[float, float]:
    # (dE/dP, its denominator in t = a/K) at a and K that passed the check;
    # NumericalError where the numerator, the denominator or dE/dP leaves the
    # float range, PoleSingularity where a/K is on the pole.
    num, den, near_pole = _rational_sums(a / K, coeffs.c, variant)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise NumericalError(f"dE/dP overflows at a/K = {a / K:.6g}")
    if near_pole:
        raise PoleSingularity(
            f"dE/dP denominator vanishes near a/K = {a / K:.6g} ({variant} form)"
        )
    # The quotient first: a * num overflows for very wide wells (from a/K ~
    # 1e62 at K = 1), although dE/dP ~ a/2 does not.
    dedp = 0.5 * a * (num / den)
    if math.isinf(dedp):
        raise NumericalError(f"dE/dP overflows at a/K = {a / K:.6g}")
    return dedp, den


def denergy_dpressure(
    a: float, K: float, coeffs: FitCoefficients, variant: str = "consistent"
) -> float:
    """dE/dP [m], by the rational closed form.

    ``consistent`` uses the denominator re-derived from the series calculus;
    ``printed`` reproduces the published denominator verbatim (leading term
    2*c1*a^4).  Raises PoleSingularity when the denominator magnitude falls
    below POLE_RTOL times its largest term, and NumericalError where the
    numerator, the denominator or dE/dP itself leaves the float range.
    """
    a, K = check_positive("a K", a, K)
    return _rational_parts(a, K, coeffs, variant)[0]


def pressure_columns(
    a: np.ndarray, K: np.ndarray, coeffs: FitCoefficients, V0: np.ndarray,
    variant: str = "consistent",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(P, dE/dP, near_pole, overflow) for equal-length arrays of a, K and V0.

    The array counterpart of pressure_1d and denergy_dpressure: the same
    domain check, formulas and pole rule, with dE/dP NaN where near_pole is
    set.  Where a row's P or dE/dP leaves the float range, overflow is set
    instead of raising, and both values are NaN.
    """
    import numpy as np
    check_positive_columns("a K V0", a, K, V0)
    t = a / K
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Rows that overflow or sit on the pole are flagged below.
        pressure = _pressure(a, K, coeffs.c, V0)
        num, den, near_pole = _rational_sums(t, coeffs.c, variant)
        dedp = 0.5 * a * (num / den)  # the order of denergy_dpressure
    overflow = ~(np.isfinite(pressure) & np.isfinite(num) & np.isfinite(den))
    near_pole &= ~overflow
    overflow |= ~(near_pole | np.isfinite(dedp))
    dedp[near_pole | overflow] = math.nan
    pressure[overflow] = math.nan
    return pressure, dedp, near_pole, overflow


def expansion_small_width(a: float, K: float, coeffs: FitCoefficients) -> float:
    """Narrow-well expansion of dE/dP:  a/6 + (1/45)(c4/c5) a^2/K  [m].

    Raises NumericalError when it leaves the float range.
    """
    a, K = check_positive("a K", a, K)
    if coeffs.c[5] == 0.0:
        raise DomainError("small-width expansion needs c5 != 0")
    # a * (a/K), not a*a/K: a*a under- or overflows where the term does not.
    dedp = a / 6.0 + (coeffs.c[4] / coeffs.c[5]) * a * (a / K) / 45.0
    return check_finite(dedp, "small-width expansion", "a K", a, K)


def expansion_small_k(
    a: float, K: float, coeffs: FitCoefficients, variant: str = "consistent"
) -> float:
    """Deep-well / heavy-particle expansion of dE/dP to second order in K [m].

    printed:    a/2 - K c2/(2 c1) + (3 K^2 / (2 a c1^2)) (c2^2 - c3^2)
    consistent: a/2 - K c2/(2 c1) + (3 K^2 / (2 a c1^2)) (c2^2 - c1 c3)

    K = 0 is allowed: it is the exact deep-well limit a/2.  Raises
    NumericalError when the expansion leaves the float range.
    """
    (a,) = check_positive("a", a)
    (K,) = check_non_negative("K", K)
    c = coeffs.c
    if variant == "consistent":
        third = c[2] * c[2] - c[1] * c[3]
    elif variant == "printed":
        third = c[2] * c[2] - c[3] * c[3]
    else:
        raise _variant_error(variant)
    if c[1] == 0.0:
        raise DomainError("small-K expansion needs c1 != 0")
    # The ratios K/c1 and K/a first: K*K and a*c1^2 under- or overflow where
    # the terms do not.
    dedp = a / 2.0 + (K / c[1]) * (1.5 * (K / a) * (third / c[1]) - 0.5 * c[2])
    return check_finite(dedp, "small-K expansion", "a K", a, K)


def _polish(coeffs, lo: float, hi: float, f_lo: float) -> float:
    # The root in (lo, hi) of the polynomial with ascending coefficients
    # coeffs, which is f_lo at lo and of the other sign at hi.  Newton steps
    # from the midpoint, on p and p' from one Horner pass; a step that leaves
    # the bracket, or is not below half the one before, is replaced by
    # bisection (rtsafe).  Stops at a step of at most 2 ulp, an exact zero,
    # or a bracket of two adjacent doubles.
    rising = f_lo < 0.0
    t = 0.5 * (lo + hi)
    step = hi - lo
    while True:
        f = slope = 0.0
        for ck in reversed(coeffs):
            slope = slope * t + f
            f = f * t + ck
        if f == 0.0:
            return t
        if (f < 0.0) == rising:
            lo = t
        else:
            hi = t
        last, step = step, f / slope if slope else math.inf
        if not lo < t - step < hi or abs(2.0 * step) > abs(last):
            step = t - 0.5 * (lo + hi)
            if not lo < t - step < hi:
                return t
        t -= step
        if abs(step) <= 2.0 * math.ulp(t):
            return t


def _quadratic_roots(c0: float, c1: float, c2: float) -> list[float]:
    # Real roots of c0 + c1 t + c2 t^2 (c2 != 0), by the formula that does
    # not cancel: q = -(c1 + sign(c1) sqrt(disc))/2, roots q/c2 and c0/q.
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [q / c2, c0 / q] if q != 0.0 else [0.0]


def _roots(coeffs) -> list[float]:
    # Ascending roots in (0, _MAX_T] of the polynomial with ascending
    # coefficients coeffs, not all 0.  Lines and quadratics are solved in
    # closed form.  Above that the roots of the derivative, found the same
    # way, cut (0, _MAX_T] into pieces where p is monotone, so each piece
    # holds at most one root: at a knot where p is exactly 0, or inside a
    # piece whose ends differ in sign.
    while coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    if len(coeffs) == 1:
        return []
    if len(coeffs) <= 3:
        found = [-coeffs[0] / coeffs[1]] if len(coeffs) == 2 else sorted(_quadratic_roots(*coeffs))
        return [t for t in found if 0.0 < t <= _MAX_T]
    knots = _roots([k * coeffs[k] for k in range(1, len(coeffs))])
    found = []
    lo, f_lo = 0.0, coeffs[0]
    for t in (*knots, _MAX_T):
        f = _horner(coeffs, t)
        if f == 0.0:
            found.append(t)
        elif f_lo != 0.0 and (f > 0.0) != (f_lo > 0.0):
            found.append(_polish(coeffs, lo, t, f_lo))
        lo, f_lo = t, f
    return found


def critical_width(
    K: float, coeffs: FitCoefficients, method: str = "paper"
) -> CriticalWidthReport:
    """Critical half-width a0 where dE/dP changes sign.

    method="paper" takes the zero of the small-width expansion,
    a0 = -7.5*(c5/c4)*K, and needs c4 != 0.  method="numeric" also reports
    a0_numeric, the smallest root in t = a/K on (0, 20] of the dE/dP
    numerator c1 t^4 + 2 c2 t^3 + 3 c3 t^2 + 4 c4 t + 5 c5, and
    pole_location, the smallest root there of the (consistent-form)
    denominator, or None.  The roots are isolated, not sampled: the roots
    of each derivative cut (0, 20] into monotone pieces, so roots closer
    than any fixed step are told apart, and a safeguarded Newton iteration
    takes each to within a few ulp.  It raises DomainError when c1..c5 are
    all 0, NoRoot when the numerator has no root on
    (0, 20], and NumericalError when a width leaves the float range.  The
    paper and numeric widths disagree for the published coefficients; both
    are reported, neither is silently preferred.
    """
    (K,) = check_positive("K", K)
    a0_paper = _small_width_zero(coeffs.c, K)
    if method == "paper":
        if a0_paper is None:
            raise DomainError("paper-method critical width needs c4 != 0")
        return CriticalWidthReport(a0_paper, None, None)
    if method != "numeric":
        raise DomainError(f"method must be 'paper' or 'numeric', got {method!r}")

    c = coeffs.c
    if not any(c[1:]):
        raise DomainError(f"numeric critical width needs c1..c5 not all 0, got {c[1:]}")
    # A power-of-two scale of c1..c5 moves no root, and with each of them
    # below 1 in magnitude no Horner sum over t <= 20 or discriminant leaves
    # the float range (unscaled, the quadratic's overflows from |c| ~ 1e154).
    # c0 is in neither polynomial and keeps its value.
    exponent = math.frexp(max(map(abs, c[1:])))[1]
    numerator, denominator = _rational_coefficients(
        [c[0], *(math.ldexp(ck, -exponent) for ck in c[1:])])
    zeros = _roots(numerator)
    if not zeros:
        raise NoRoot(f"dE/dP numerator has no root in t = a/K on (0, {_MAX_T}]")
    poles = _roots(denominator)
    return CriticalWidthReport(
        a0_paper,
        check_finite(zeros[0] * K, "numeric critical width", "K", K),
        check_finite(poles[0] * K, "pole location", "K", K) if poles else None,
    )


def classify_response(a: float, K: float, coeffs: FitCoefficients) -> ResponseReport:
    """Ionizes iff a < a0 (paper critical width); exact ties push deeper.

    A tie within TIE_RTOL relative is reported as PushedDeeper with the
    boundary flag set, since the published criterion only treats the strict
    inequality.  Raises NumericalError where a0 leaves the float range.
    """
    a, K = check_positive("a K", a, K)
    a0 = _small_width_zero(coeffs.c, K)
    if a0 is None:
        raise DomainError("classification needs c4 != 0")
    at_boundary = abs(a - a0) <= TIE_RTOL * max(abs(a), abs(a0))
    if a < a0 and not at_boundary:
        outcome = Response.IONIZES
    else:
        outcome = Response.PUSHED_DEEPER
    return ResponseReport(outcome, at_boundary, a0)


def pressure_profile(
    a: float, K: float, coeffs: FitCoefficients, V0: float
) -> PressureProfile:
    """P and both dE/dP variants at one half-width; poles become NaN + flag."""
    a, K, V0 = check_positive("a K V0", a, K, V0)
    pressure = pressure_1d(a, K, coeffs, V0)
    near_pole = False
    values = []
    for variant in ("consistent", "printed"):
        try:
            values.append(_rational_parts(a, K, coeffs, variant)[0])
        except PoleSingularity:
            values.append(math.nan)
            near_pole = True
    return PressureProfile(a, pressure, values[0], values[1], near_pole)
