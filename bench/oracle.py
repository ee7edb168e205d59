"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports finwell: the constants, the published coefficients and
the even-parity root are typed in or solved again from the defining
equations, so a fault in the library cannot hide in its own check.  Each
``check_*`` function returns a list of failure messages (empty when the
output is right).
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018, as pinned by the paper's reproduction.
HBAR = 1.054571817e-34       # J s
ELECTRON_MASS = 9.1093837015e-31  # kg
ELECTRONVOLT = 1.602176634e-19    # J

# Published inverse-power coefficients c0..c5 and their quoted sigma.
PAPER_C = (-0.000618, 0.018006, 2.259278, -3.678692, 2.908830, -0.960535)
PAPER_SIGMA = 2.2e-6

# Published hydrogen example: depth 13.6058 eV, half-width 0.529 angstrom.
HYDROGEN_DEPTH_EV = 13.6058
HYDROGEN_HALF_WIDTH = 0.529e-10
HYDROGEN_K_REF = 5.2918e-11
HYDROGEN_A0_REF = 1.31056e-10
HYDROGEN_RTOL = 2e-3

# Published verify verdicts for the paper's coefficient set.
VERIFY_VERDICTS = {
    "pressure-series-v0": "discrepant",
    "dedp-printed-k0-limit": "discrepant",
    "small-width-expansion": "consistent",
    "small-k-expansion-third-term": "discrepant",
    "critical-width": "discrepant",
}

UNIT_FACTORS = {
    "m": 1.0, "nm": 1e-9, "angstrom": 1e-10,
    "J": 1.0, "eV": ELECTRONVOLT, "kg": 1.0, "me": ELECTRON_MASS,
}

# Relative tolerances.  A full-precision value from the library agrees with
# its reference to a few ulps; the human tables print 9 significant digits
# (6 in the verify table).
FULL = 1e-10
PRINTED_9 = 1e-8
PRINTED_6 = 1e-5


def close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), abs(got), 1e-300)


def char_length(depth: float, mass: float) -> float:
    """K = hbar / sqrt(2 m V0)."""
    return HBAR / math.sqrt(2.0 * mass * depth)


def even_root(n: float, branch: int = 0) -> float:
    """Plain bisection of xi*sin(xi) - cos(xi)*sqrt(n^2 - xi^2) on the branch.

    The bracket is (k*pi, min(k*pi + pi/2, n)); bisection runs until the
    midpoint no longer moves, so the result is exact to an ulp or two.
    """
    lo = branch * math.pi
    hi = min(lo + 0.5 * math.pi, n)

    def f(x: float) -> float:
        return x * math.sin(x) - math.cos(x) * math.sqrt(max(n * n - x * x, 0.0))

    f_lo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def series(c, n: float) -> float:
    """sum c_i / n^i by Horner's rule in 1/n."""
    u = 1.0 / n
    acc = 0.0
    for ci in reversed(c):
        acc = acc * u + ci
    return acc


def pressure(a: float, K: float, V0: float, c=PAPER_C) -> float:
    """P = V0 * sum_{i=1..5} i c_i K^i / a^(i+1), Horner in K/a."""
    u = K / a
    acc = 0.0
    for i in range(5, 0, -1):
        acc = acc * u + i * c[i]
    return V0 * acc * u / a


def numerator_quartic(c=PAPER_C) -> list[float]:
    """dE/dP numerator in t = a/K, highest power first (numpy.roots order)."""
    return [c[1], 2 * c[2], 3 * c[3], 4 * c[4], 5 * c[5]]


def denominator_quartic(c=PAPER_C, lead: float = 1.0) -> list[float]:
    return [lead * c[1], 3 * c[2], 6 * c[3], 10 * c[4], 15 * c[5]]


def dedp(a: float, K: float, c=PAPER_C, printed: bool = False) -> float:
    t = a / K
    num = np.polyval(numerator_quartic(c), t)
    den = np.polyval(denominator_quartic(c, 2.0 if printed else 1.0), t)
    return float(0.5 * a * num / den)


def smallest_positive_root(coeffs: list[float], t_max: float = 20.0) -> float | None:
    roots = [r.real for r in np.roots(coeffs) if abs(r.imag) <= 1e-9 * abs(r) and 0 < r.real <= t_max]
    return min(roots) if roots else None


def critical_width_paper(K: float, c=PAPER_C) -> float:
    return -7.5 * c[5] / c[4] * K


def interval_probability(z: float, gamma: float) -> float:
    """R = (z g + sinh(z g)) / (z + sinh z), with z = 2 a beta (z > 0)."""
    return (z * gamma + math.sinh(z * gamma)) / (z + math.sinh(z))


def fitted_beta(a: float, K: float, mass: float, depth: float, c=PAPER_C) -> float:
    return math.sqrt(2.0 * mass * depth * (1.0 - series(c, a / K))) / HBAR


# --- checks -----------------------------------------------------------------

def check_root(xi: float, n: float, branch: int = 0, rtol: float = FULL) -> list[str]:
    errors = []
    lo = branch * math.pi
    if not lo < xi < lo + 0.5 * math.pi:
        errors.append(f"xi={xi!r} outside ({lo}, {lo + 0.5 * math.pi}) for n={n!r}")
    want = even_root(n, branch)
    if not close(xi, want, rtol):
        errors.append(f"xi={xi!r} but bisection gives {want!r} for n={n!r}, branch {branch}")
    return errors


def check_sweep_row(row: dict, depth: float, mass: float, gamma: float | None) -> list[str]:
    """One sweep row (CSV or JSON) against the reference computations."""
    a = row["a_m"]
    K = char_length(depth, mass)
    n = a / K
    errors = []
    for name, got, want in (("K_m", row["K_m"], K), ("n", row["n"], n)):
        if not close(got, want, FULL):
            errors.append(f"{name}={got!r}, expected {want!r}")
    xi = row["xi"]
    errors += check_root(xi, n)
    if not close(row["E_over_V0"], (xi / n) ** 2, FULL):
        errors.append(f"E_over_V0={row['E_over_V0']!r} != (xi/n)^2 at n={n!r}")
    if not close(row["E_J"], row["E_over_V0"] * depth, FULL):
        errors.append(f"E_J={row['E_J']!r} != E_over_V0*V0 at n={n!r}")
    if not close(row["P_N"], pressure(a, K, depth), 1e-9):
        errors.append(f"P_N={row['P_N']!r}, Horner sum gives {pressure(a, K, depth)!r}")
    if row["dEdP_m"] is None:
        if "near_pole" not in row["flags"]:
            errors.append(f"dEdP_m empty without near_pole at n={n!r}")
    elif not close(row["dEdP_m"], dedp(a, K), 1e-8):
        errors.append(f"dEdP_m={row['dEdP_m']!r}, rational form gives {dedp(a, K)!r}")
    if gamma is not None:
        fit = series(PAPER_C, n)
        R = row["R"]
        if fit > 1.0:
            if R is not None or "fit_out_of_range" not in row["flags"]:
                errors.append(f"fit E/V0={fit} > 1 at n={n!r} but R={R!r}, flags={row['flags']}")
        elif R is None:
            errors.append(f"R empty at n={n!r}")
        else:
            if not 0.0 <= R <= gamma * (1 + 4 * 2.0 ** -52):
                errors.append(f"R={R!r} outside [0, gamma={gamma}]")
            want = interval_probability(2.0 * a * fitted_beta(a, K, mass, depth), gamma)
            if not close(R, want, 1e-9):
                errors.append(f"R={R!r}, closed form gives {want!r} at n={n!r}")
    return errors


def check_hydrogen(values: dict) -> list[str]:
    """`hydrogen` output: K and a0 near the published values, and Ionizes."""
    errors = []
    K = float(values["K_m"])
    a0 = float(values["a0_m"])
    K_own = char_length(HYDROGEN_DEPTH_EV * ELECTRONVOLT, ELECTRON_MASS)
    if not close(K, HYDROGEN_K_REF, HYDROGEN_RTOL):
        errors.append(f"hydrogen K={K} not within 2e-3 of {HYDROGEN_K_REF}")
    if not close(a0, HYDROGEN_A0_REF, HYDROGEN_RTOL):
        errors.append(f"hydrogen a0={a0} not within 2e-3 of {HYDROGEN_A0_REF}")
    if not close(K, K_own, PRINTED_9):
        errors.append(f"hydrogen K={K}, constants give {K_own}")
    if not close(a0, critical_width_paper(K_own), PRINTED_9):
        errors.append(f"hydrogen a0={a0}, -7.5*c5/c4*K gives {critical_width_paper(K_own)}")
    if values["classification"] != "Ionizes":
        errors.append(f"hydrogen classification {values['classification']!r}, expected Ionizes")
    return errors


def check_verify(rows: dict[str, tuple[float, float, str]], rtol: float) -> list[str]:
    """Verify report values: rows maps check id to (printed, rederived, verdict)."""
    errors = []
    if set(rows) != set(VERIFY_VERDICTS):
        return [f"verify checks {sorted(rows)} differ from {sorted(VERIFY_VERDICTS)}"]
    for check_id, verdict in VERIFY_VERDICTS.items():
        if rows[check_id][2] != verdict:
            errors.append(f"verify {check_id}: {rows[check_id][2]}, published {verdict}")
    # K -> 0 limits at a = 1, K = 1e-9: the printed rational form tends to
    # a/4, its own small-K expansion to a/2; the O(K c2/c1) terms are ~1e-7.
    printed, rederived, _ = rows["dedp-printed-k0-limit"]
    if not close(printed, 0.25, 1e-6) or not close(rederived, 0.5, 1e-6):
        errors.append(f"verify K->0 limits {printed}, {rederived}; expected a/4=0.25, a/2=0.5")
    if not close(printed, dedp(1.0, 1e-9, printed=True), rtol):
        errors.append(f"verify printed rational form {printed}, expected {dedp(1.0, 1e-9, printed=True)}")
    printed, rederived, _ = rows["critical-width"]
    series_zero = critical_width_paper(1.0)
    numeric_zero = smallest_positive_root(numerator_quartic())
    if not close(printed, series_zero, rtol):
        errors.append(f"verify series zero {printed}, -7.5*c5/c4 = {series_zero}")
    if numeric_zero is None or not close(rederived, numeric_zero, max(rtol, 1e-9)):
        errors.append(f"verify numeric zero {rederived}, numpy.roots gives {numeric_zero}")
    return errors


def check_refit_sigma(c, sigma: float, grid_points, rtol: float) -> list[str]:
    """sigma must be the RMS of the fit's own residuals on its grid."""
    residuals = [series(c, n) - (even_root(n) / n) ** 2 for n in grid_points]
    rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    if not close(sigma, rms, rtol):
        return [f"refit sigma={sigma!r}, RMS of its residuals is {rms!r}"]
    return []


def probability_pressure_derivative(a: float, K: float, mass: float, depth: float,
                                    gamma: float, step: float = 1e-5) -> float:
    """dR/dP by central differences of the reference R(a) and P(a)."""
    h = step * a

    def R(width: float) -> float:
        return interval_probability(2.0 * width * fitted_beta(width, K, mass, depth), gamma)

    return (R(a + h) - R(a - h)) / (pressure(a + h, K, depth) - pressure(a - h, K, depth))


# --- output parsing -----------------------------------------------------------

CSV_HEADER = ["param", "a_m", "n", "K_m", "xi", "E_J", "E_over_V0", "P_N", "dEdP_m", "R", "flags"]


def csv_row(fields: list[str]) -> dict:
    row = {k: (float(v) if v else None) for k, v in zip(CSV_HEADER[:-1], fields)}
    row["flags"] = fields[-1].split(";") if fields[-1] else []
    return row


def split_quantity(text: str) -> tuple[float, str]:
    number = text.rstrip("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    return float(number), text[len(number):]


def linspace(start: float, stop: float, count: int) -> list[float]:
    return np.linspace(start, stop, count).tolist()
