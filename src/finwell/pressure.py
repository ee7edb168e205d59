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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NoRoot, NumericalError, PoleSingularity
from .fitseries import FitCoefficients

POLE_RTOL = 1e-12          # |denominator| below this times its largest term -> pole
TIE_RTOL = 1e-12           # relative width of the classification tie band
_SCAN_POINTS = 2000        # sign-scan resolution for the numeric critical width
_SCAN_MAX_T = 20.0
_BISECT_TOL = 1e-12


class Response(Enum):
    IONIZES = "Ionizes"
    PUSHED_DEEPER = "PushedDeeper"


@dataclass(frozen=True)
class PressureProfile:
    """Pressure state at one half-width; dedp fields are NaN at a pole."""

    half_width: float      # a [m]
    pressure: float        # P [N]
    dedp: float            # dE/dP, consistent form [m]
    dedp_printed: float    # dE/dP, printed form [m]
    near_pole: bool


@dataclass(frozen=True)
class CriticalWidthReport:
    """Critical half-width estimates, in meters.

    a0_paper is the zero of the small-width expansion, -7.5*(c5/c4)*K; the
    numeric fields come from root-finding the full rational form and are
    present only for method="numeric".
    """

    a0_paper: float | None
    a0_numeric: float | None
    pole_location: float | None
    classification_width_used: str  # "paper" | "numeric"


@dataclass(frozen=True)
class ResponseReport:
    outcome: Response
    at_boundary: bool
    critical_half_width: float  # the a0 used for the comparison [m]


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"{name} must be positive and finite, got {value}")


def _pressure(a, K, c, V0):
    # V0 * sum_i i c_i K^i / a^(i+1) by Horner in K/a; floats or arrays.
    u = K / a
    acc = 0.0
    for i in range(5, 0, -1):
        acc = (acc + i * c[i]) * u
    return V0 * acc / a


def pressure_1d(a: float, K: float, coeffs: FitCoefficients, V0: float) -> float:
    """P = V0 * sum_{i=1..5} i c_i K^i / a^(i+1)  [N].

    The V0 factor missing from the printed series is restored; dimensional
    analysis of E = V0 * sum c_i (K/a)^i forces it.  Raises NumericalError
    when P leaves the float range (a far below K).
    """
    _check_positive(a=a, K=K, V0=V0)
    p = _pressure(a, K, coeffs.c, V0)
    if not math.isfinite(p):
        raise NumericalError(f"pressure overflows at a/K = {a / K:.6g}")
    return p


def _check_variant(variant: str) -> None:
    if variant not in ("printed", "consistent"):
        raise DomainError(f"variant must be 'printed' or 'consistent', got {variant!r}")


def _rational_terms(t, c, variant: str) -> tuple[tuple, tuple]:
    # Numerator and denominator terms of dE/dP in t = a/K; floats or arrays.
    # Powers by multiplication: numpy's ** may round differently from libm.
    lead = 2.0 * c[1] if variant == "printed" else c[1]
    t2 = t * t
    t3, t4 = t2 * t, t2 * t2
    num_terms = (5.0 * c[5], 4.0 * c[4] * t, 3.0 * c[3] * t2, 2.0 * c[2] * t3, c[1] * t4)
    den_terms = (15.0 * c[5], 10.0 * c[4] * t, 6.0 * c[3] * t2, 3.0 * c[2] * t3, lead * t4)
    return num_terms, den_terms


def _rational_parts(
    a: float, K: float, coeffs: FitCoefficients, variant: str
) -> tuple[float, float, float]:
    """(numerator, denominator, denominator scale) of dE/dP in t = a/K."""
    _check_variant(variant)
    num_terms, den_terms = _rational_terms(a / K, coeffs.c, variant)
    if not all(map(math.isfinite, num_terms + den_terms)):
        raise NumericalError(f"dE/dP overflows at a/K = {a / K:.6g}")
    return (
        math.fsum(num_terms),
        math.fsum(den_terms),
        max(abs(term) for term in den_terms),
    )


def _neumaier_sum(terms: tuple) -> np.ndarray:
    # Neumaier's compensated sum of scalar or array terms; it keeps the
    # accuracy of math.fsum where they cancel, next to the zero and the pole
    # of dE/dP, where a plain sum is off by 3e-7 at 1e-9 from the pole.
    total = np.zeros(np.broadcast(*terms).shape)
    carry = np.zeros_like(total)
    for term in terms:
        s = total + term
        carry += np.where(np.abs(total) >= np.abs(term), (total - s) + term, (term - s) + total)
        total = s
    return total + carry


def denergy_dpressure(
    a: float, K: float, coeffs: FitCoefficients, variant: str = "consistent"
) -> float:
    """dE/dP [m], by the rational closed form.

    ``consistent`` uses the denominator re-derived from the series calculus;
    ``printed`` reproduces the published denominator verbatim (leading term
    2*c1*a^4).  Raises PoleSingularity when the denominator magnitude falls
    below POLE_RTOL times its largest term.
    """
    _check_positive(a=a, K=K)
    num, den, scale = _rational_parts(a, K, coeffs, variant)
    if abs(den) < POLE_RTOL * scale or den == 0.0:
        raise PoleSingularity(
            f"dE/dP denominator vanishes near a/K = {a / K:.6g} ({variant} form)"
        )
    return 0.5 * a * num / den


def pressure_columns(
    a: np.ndarray, K: np.ndarray, coeffs: FitCoefficients, V0: np.ndarray,
    variant: str = "consistent",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, dE/dP, near_pole) for equal-length arrays of a, K and V0.

    The array counterpart of pressure_1d and denergy_dpressure: the same
    formulas and pole rule, with dE/dP NaN where near_pole is set.  Raises
    NumericalError when a row's P or dE/dP leaves the float range.
    """
    _check_variant(variant)
    c = coeffs.c
    t = a / K
    with np.errstate(over="ignore", invalid="ignore"):
        # Rows that overflow are reported below.
        pressure = _pressure(a, K, c, V0)
        num_terms, den_terms = _rational_terms(t, c, variant)
        num, den = _neumaier_sum(num_terms), _neumaier_sum(den_terms)
    for name, finite in (("pressure", np.isfinite(pressure)),
                         ("dE/dP", np.isfinite(num) & np.isfinite(den))):
        bad = np.flatnonzero(~finite)
        if bad.size:
            raise NumericalError(f"{name} overflows at a/K = {t[bad[0]]:.6g}")
    scale = np.abs(np.broadcast_arrays(*den_terms)).max(axis=0)
    near_pole = (np.abs(den) < POLE_RTOL * scale) | (den == 0.0)
    dedp = np.full_like(t, math.nan)
    ok = ~near_pole
    dedp[ok] = 0.5 * a[ok] * num[ok] / den[ok]
    return pressure, dedp, near_pole


def expansion_small_width(a: float, K: float, coeffs: FitCoefficients) -> float:
    """Narrow-well expansion of dE/dP:  a/6 + (1/45)(c4/c5) a^2/K  [m]."""
    _check_positive(a=a, K=K)
    if coeffs.c[5] == 0.0:
        raise DomainError("small-width expansion needs c5 != 0")
    return a / 6.0 + (coeffs.c[4] / coeffs.c[5]) * a * a / (45.0 * K)


def expansion_small_k(
    a: float, K: float, coeffs: FitCoefficients, variant: str = "consistent"
) -> float:
    """Deep-well / heavy-particle expansion of dE/dP to second order in K [m].

    printed:    a/2 - K c2/(2 c1) + (3 K^2 / (2 a c1^2)) (c2^2 - c3^2)
    consistent: a/2 - K c2/(2 c1) + (3 K^2 / (2 a c1^2)) (c2^2 - c1 c3)

    K = 0 is allowed: it is the exact deep-well limit a/2.
    """
    _check_positive(a=a)
    if not math.isfinite(K) or K < 0.0:
        raise DomainError(f"K must be non-negative and finite, got {K}")
    if variant not in ("printed", "consistent"):
        raise DomainError(f"variant must be 'printed' or 'consistent', got {variant!r}")
    c = coeffs.c
    if c[1] == 0.0:
        raise DomainError("small-K expansion needs c1 != 0")
    third = c[2] ** 2 - c[3] ** 2 if variant == "printed" else c[2] ** 2 - c[1] * c[3]
    return a / 2.0 - K * c[2] / (2.0 * c[1]) + 3.0 * K * K * third / (2.0 * a * c[1] ** 2)


def _poly(coeffs_ascending: tuple[float, ...], t: float) -> float:
    acc = 0.0
    for ck in reversed(coeffs_ascending):
        acc = acc * t + ck
    return acc


def _scan_smallest_root(poly_coeffs: tuple[float, ...]) -> float | None:
    """Smallest root of the polynomial on (0, _SCAN_MAX_T], or None.

    Uniform sign scan over _SCAN_POINTS points followed by bisection of the
    first bracketing interval to _BISECT_TOL.
    """
    step = _SCAN_MAX_T / _SCAN_POINTS
    t_prev = step
    f_prev = _poly(poly_coeffs, t_prev)
    if f_prev == 0.0:
        return t_prev
    for k in range(2, _SCAN_POINTS + 1):
        t_next = k * step
        f_next = _poly(poly_coeffs, t_next)
        if f_next == 0.0:
            return t_next
        if (f_prev > 0.0) != (f_next > 0.0):
            lo, hi = t_prev, t_next
            f_lo = f_prev
            while hi - lo > _BISECT_TOL:
                mid = 0.5 * (lo + hi)
                f_mid = _poly(poly_coeffs, mid)
                if f_mid == 0.0:
                    return mid
                if (f_mid > 0.0) == (f_lo > 0.0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        t_prev, f_prev = t_next, f_next
    return None


def critical_width(
    K: float, coeffs: FitCoefficients, method: str = "paper"
) -> CriticalWidthReport:
    """Critical half-width a0 where dE/dP changes sign.

    method="paper" takes the zero of the small-width expansion,
    a0 = -7.5*(c5/c4)*K.  method="numeric" root-finds the dE/dP numerator
    polynomial c1 t^4 + 2 c2 t^3 + 3 c3 t^2 + 4 c4 t + 5 c5 in t = a/K on
    (0, 20], and also locates the (consistent-form) denominator root, the
    pole, when one exists.  The two disagree for the published coefficients;
    both are reported, neither is silently preferred.
    """
    _check_positive(K=K)
    c = coeffs.c
    a0_paper = None
    if c[4] != 0.0:
        a0_paper = -7.5 * (c[5] / c[4]) * K
    if method == "paper":
        if a0_paper is None:
            raise DomainError("paper-method critical width needs c4 != 0")
        return CriticalWidthReport(
            a0_paper=a0_paper,
            a0_numeric=None,
            pole_location=None,
            classification_width_used="paper",
        )
    if method != "numeric":
        raise DomainError(f"method must be 'paper' or 'numeric', got {method!r}")

    numerator = (5.0 * c[5], 4.0 * c[4], 3.0 * c[3], 2.0 * c[2], c[1])
    denominator = (15.0 * c[5], 10.0 * c[4], 6.0 * c[3], 3.0 * c[2], c[1])
    t_zero = _scan_smallest_root(numerator)
    if t_zero is None:
        raise NoRoot(f"dE/dP numerator has no root in t = a/K on (0, {_SCAN_MAX_T}]")
    t_pole = _scan_smallest_root(denominator)
    return CriticalWidthReport(
        a0_paper=a0_paper,
        a0_numeric=t_zero * K,
        pole_location=None if t_pole is None else t_pole * K,
        classification_width_used="numeric",
    )


def classify_response(a: float, K: float, coeffs: FitCoefficients) -> ResponseReport:
    """Ionizes iff a < a0 (paper critical width); exact ties push deeper.

    A tie within TIE_RTOL relative is reported as PushedDeeper with the
    boundary flag set, since the published criterion only treats the strict
    inequality.
    """
    _check_positive(a=a, K=K)
    if coeffs.c[4] == 0.0:
        raise DomainError("classification needs c4 != 0")
    a0 = -7.5 * (coeffs.c[5] / coeffs.c[4]) * K
    at_boundary = abs(a - a0) <= TIE_RTOL * max(abs(a), abs(a0))
    if a < a0 and not at_boundary:
        outcome = Response.IONIZES
    else:
        outcome = Response.PUSHED_DEEPER
    return ResponseReport(outcome=outcome, at_boundary=at_boundary, critical_half_width=a0)


def pressure_profile(
    a: float, K: float, coeffs: FitCoefficients, V0: float
) -> PressureProfile:
    """P and both dE/dP variants at one half-width; poles become NaN + flag."""
    pressure = pressure_1d(a, K, coeffs, V0)
    near_pole = False
    values = []
    for variant in ("consistent", "printed"):
        try:
            values.append(denergy_dpressure(a, K, coeffs, variant))
        except PoleSingularity:
            values.append(math.nan)
            near_pole = True
    return PressureProfile(
        half_width=a,
        pressure=pressure,
        dedp=values[0],
        dedp_printed=values[1],
        near_pole=near_pole,
    )
