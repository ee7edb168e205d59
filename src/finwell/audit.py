"""The audit of the printed formulas and of the worked hydrogen example.

``build_verify_report`` compares each printed formula against an independent
re-derivation; ``hydrogen_report`` reproduces the published hydrogen numbers
and says whether they match within ``HYDROGEN_RTOL``.  Both are scalar code
and do not import numpy.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .fitseries import PAPER_FIT, eval_fit
from .pressure import (
    Response,
    classify_response,
    critical_width,
    denergy_dpressure,
    expansion_small_k,
    expansion_small_width,
    pressure_1d,
)
from .spectrum import hydrogen_well, well_strength
from .units import CONSTANTS

# Published reproduction targets for the hydrogen example, and the accepted
# relative deviation.
HYDROGEN_K_REF = 5.2918e-11      # m
HYDROGEN_A0_REF = 1.31056e-10    # m
HYDROGEN_RTOL = 2e-3


# One row of the verify report; verdict is "consistent" or "discrepant".
VerifyCheck = namedtuple("VerifyCheck", "check_id printed rederived relative_deviation verdict")


def build_verify_report() -> list[VerifyCheck]:
    """Compare each printed formula of the published set against an
    independent re-derivation.

    The checks cover the pressure series (missing V0 factor), the rational
    dE/dP form (denominator leading term, via the K->0 limit against the
    printed small-K expansion), both expansions, and the critical-width
    claim (series zero vs the numeric zero of the full rational form).
    """
    checks = []

    def add(check_id: str, printed: float, rederived: float, tol: float) -> None:
        dev = abs(printed - rederived) / max(abs(rederived), sys.float_info.min)
        verdict = "consistent" if dev <= tol else "discrepant"
        checks.append(VerifyCheck(check_id, printed, rederived, dev, verdict))

    # Pressure series as printed (no V0) vs -dE/da of the fitted energy, at
    # the hydrogen preset and a = 2K.
    cfg = hydrogen_well()
    K = well_strength(cfg).characteristic_length
    a = 2.0 * K
    h = 1e-6 * a
    printed_series = pressure_1d(a, K, PAPER_FIT, 1.0)  # V0 factor absent
    energy = lambda w: cfg.depth * eval_fit(PAPER_FIT, w / K)
    rederived_pressure = -(energy(a + h) - energy(a - h)) / (2.0 * h)
    add("pressure-series-v0", printed_series, rederived_pressure, 1e-6)

    # The two printed forms against each other in their common K->0 limit:
    # the rational form tends to a/4, the small-K expansion starts at a/2.
    a, K = 1.0, 1e-9
    add(
        "dedp-printed-k0-limit",
        denergy_dpressure(a, K, PAPER_FIT, "printed"),
        expansion_small_k(a, K, PAPER_FIT, "printed"),
        1e-6,
    )

    # Small-width expansion vs the consistent rational form at a/K = 0.01.
    a, K = 0.01, 1.0
    add(
        "small-width-expansion",
        expansion_small_width(a, K, PAPER_FIT),
        denergy_dpressure(a, K, PAPER_FIT, "consistent"),
        1e-2,
    )

    # Printed small-K expansion vs the re-derived one at K/a = 1e-4, deep in
    # the expansion's validity range for these coefficients.
    a, K = 1.0, 1e-4
    add(
        "small-k-expansion-third-term",
        expansion_small_k(a, K, PAPER_FIT, "printed"),
        expansion_small_k(a, K, PAPER_FIT, "consistent"),
        1e-4,
    )

    # Critical width: series zero (in units of K) vs the numeric zero of the
    # dE/dP numerator.
    report = critical_width(1.0, PAPER_FIT, method="numeric")
    add("critical-width", report.a0_paper, report.a0_numeric, 1e-3)

    return checks


def hydrogen_report() -> dict:
    """The hydrogen example's numbers, in print order, ending with ``reproduced``.

    ``reproduced`` holds when K and the critical width a0 lie within
    HYDROGEN_RTOL of the published values and the Bohr-radius well ionizes.
    """
    cfg = hydrogen_well()
    K = well_strength(cfg).characteristic_length
    classification = classify_response(cfg.half_width, K, PAPER_FIT)
    a0 = classification.critical_half_width
    k_dev = abs(K - HYDROGEN_K_REF) / HYDROGEN_K_REF
    a0_dev = abs(a0 - HYDROGEN_A0_REF) / HYDROGEN_A0_REF
    return {
        "V0_eV": cfg.depth / CONSTANTS.electronvolt,
        "K_m": K,
        "K_reference_m": HYDROGEN_K_REF,
        "K_rel_dev": k_dev,
        "a0_m": a0,
        "a0_reference_m": HYDROGEN_A0_REF,
        "a0_rel_dev": a0_dev,
        "half_width_m": cfg.half_width,
        "classification": classification.outcome.value,
        "reproduced": (
            k_dev <= HYDROGEN_RTOL
            and a0_dev <= HYDROGEN_RTOL
            and classification.outcome is Response.IONIZES
        ),
    }
