"""Inverse-power fit of the ground-state energy against well strength.

The ground-state ratio E/V0 is sampled on a grid of strengths n and fitted
by a degree-5 polynomial in u = 1/n,

    E/V0 ~ c0 + c1/n + c2/n^2 + c3/n^3 + c4/n^4 + c5/n^5.

Two coefficient sets are first-class: the published set (with its quoted
standard deviation) and refits computed here, which carry their sample grid
as provenance.  Coefficient sets serialize to a small JSON document that the
pressure module and the CLI exchange.

The published set evidently comes from a sparse sample: refitting on the
ten integers n = 1..10 reproduces its sigma and coefficients closely, while
dense grids over [1, 10] cannot reach sigma <= 1e-5 because the model has a
~5e-3 gap to the exact curve between n = 1 and n = 2.  The default grid is
therefore 13 uniform points on [1, 10], the sparsest uniform grid spanning
the full range with margin over the six parameters.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from operator import mul

from .errors import DomainError, NumericalError, SingularSystem
from .spectrum import energy_ratio

N_COEFFS = 6


class FitGrid(namedtuple("FitGrid", "n_start n_stop n_count")):
    """Uniform sample grid in strength n."""

    __slots__ = ()

    def __new__(cls, n_start: float, n_stop: float, n_count: int) -> FitGrid:
        if not (1.0 <= n_start < n_stop):
            raise DomainError(f"need 1 <= n_start < n_stop, got [{n_start}, {n_stop}]")
        if not math.isfinite(n_stop):
            raise DomainError(f"n_stop must be finite, got {n_stop}")
        if n_count < 2 * N_COEFFS:
            raise DomainError(f"n_count must be at least {2 * N_COEFFS}, got {n_count}")
        return super().__new__(cls, n_start, n_stop, n_count)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def points(self) -> list[float]:
        """n_start + i*step with the last point set to n_stop: np.linspace's values."""
        step = (self.n_stop - self.n_start) / (self.n_count - 1)
        ns = [self.n_start + i * step for i in range(self.n_count)]
        ns[-1] = self.n_stop
        return ns


DEFAULT_GRID = FitGrid(1.0, 10.0, 13)


class FitCoefficients(namedtuple("FitCoefficients", "c sigma source grid", defaults=(None,))):
    """Six series constants plus the fit's RMS residual and provenance.

    c is the tuple (c0, ..., c5), sigma the RMS residual, source "paper" or
    "refit", and grid the refit's FitGrid (None for the published set).
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        grid = None if self.grid is None else self.grid._asdict()
        return {"c": list(self.c), "sigma": self.sigma, "source": self.source, "grid": grid}

    @classmethod
    def from_dict(cls, data: dict) -> "FitCoefficients":
        try:
            c = data["c"]
            if len(c) != N_COEFFS:
                raise DomainError(f"expected {N_COEFFS} coefficients, got {len(c)}")
            grid = None
            if data.get("grid") is not None:
                g = data["grid"]
                grid = FitGrid(g["n_start"], g["n_stop"], g["n_count"])
            c, sigma = tuple(float(x) for x in c), float(data["sigma"])
            source = str(data["source"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed coefficients document: {exc}") from exc
        if not all(math.isfinite(x) for x in (*c, sigma)):
            raise DomainError(f"coefficients and sigma must be finite, got c={c}, sigma={sigma}")
        return cls(c=c, sigma=sigma, source=source, grid=grid)


# Published constants of the inverse-power series and the quoted sigma.
PAPER_FIT = FitCoefficients(
    c=(-0.000618, 0.018006, 2.259278, -3.678692, 2.908830, -0.960535),
    sigma=2.2e-6,
    source="paper",
)


def sample_energies(grid: FitGrid) -> list[tuple[float, float]]:
    """(n, E/V0) pairs for the ground branch over the grid."""
    return [(n, energy_ratio(n)) for n in grid.points()]


def _dot(x: list[float], y: list[float]) -> float:
    return math.fsum(map(mul, x, y))


def fit_inverse_poly(
    points: list[tuple[float, float]], grid: FitGrid | None = None
) -> FitCoefficients:
    """Least-squares fit of the degree-5 series in 1/n to (n, E/V0) pairs.

    Modified Gram-Schmidt QR of the Vandermonde matrix in u = 1/n with the
    E/V0 column appended, math.fsum dot products, and back substitution in
    R; normal equations would square the condition number of a system that
    is already ill-conditioned near n = 1.  A diagonal |R_jj| <= eps*m*|R_00|
    (lstsq's default rcond) raises SingularSystem.  sigma is the RMS
    residual over the input points.
    """
    m = len(points)
    if m < 2 * N_COEFFS:
        raise DomainError(f"need at least {2 * N_COEFFS} points, got {m}")
    ns = [float(n) for n, _ in points]
    ys = [float(y) for _, y in points]
    if not all(n > 0.0 for n in ns):
        raise DomainError("sample strengths must be positive")
    us = [1.0 / n for n in ns]
    if len(set(us)) != m:
        raise DomainError("sample points must have distinct n values (and distinct 1/n)")

    cols = [[1.0] * m]
    for _ in range(N_COEFFS - 1):
        cols.append(list(map(mul, cols[-1], us)))
    # Finite squares keep every norm, dot product and update below finite.
    if not math.isfinite(sum(x * x for x in (*cols[-1], *ys))):
        raise NumericalError("sample points leave the float range: (E/V0)^2 and (1/n)^10 must be finite")
    cols.append(ys)

    tol = math.ulp(1.0) * m * math.sqrt(m)  # R_00 = sqrt(m), the norm of the column of ones
    rows = []  # R_jj, then R_jk for k > j followed by (Q^T y)_j
    for j in range(N_COEFFS):
        r_jj = math.sqrt(_dot(cols[j], cols[j]))
        if r_jj <= tol:
            raise SingularSystem(f"design matrix rank {j} < {N_COEFFS}")
        q = [x / r_jj for x in cols[j]]
        row = []
        for k in range(j + 1, N_COEFFS + 1):
            r_jk = _dot(q, cols[k])
            cols[k] = [w - r_jk * qi for w, qi in zip(cols[k], q)]
            row.append(r_jk)
        rows.append((r_jj, row))

    c = []
    for r_jj, (*r_j, z_j) in reversed(rows):
        c.insert(0, (z_j - _dot(r_j, c)) / r_jj)
    sigma = math.sqrt(math.fsum((_horner(c, u) - y) ** 2 for u, y in zip(us, ys)) / m)
    return FitCoefficients(c=tuple(c), sigma=sigma, source="refit", grid=grid)


def refit(grid: FitGrid = DEFAULT_GRID) -> FitCoefficients:
    """Sample the exact solver on the grid and fit; records grid provenance."""
    return fit_inverse_poly(sample_energies(grid), grid=grid)


def _horner(coeffs, x):
    # sum_i coeffs[i] x^i by Horner, coefficients ascending; floats or arrays.
    acc = 0.0
    for ck in reversed(coeffs):
        acc = acc * x + ck
    return acc


def eval_fit(coeffs: FitCoefficients, n: float) -> float:
    """Series value E/V0 at strength n (Horner evaluation in 1/n).

    Raises NumericalError when the series leaves the float range (n far
    below 1).
    """
    if not math.isfinite(n) or n <= 0.0:
        raise DomainError(f"strength n must be positive, got {n}")
    value = _horner(coeffs.c, 1.0 / n)
    if not math.isfinite(value):
        raise NumericalError(f"fitted series overflows at n = {n:.6g}")
    return value


def dump_coefficients(coeffs: FitCoefficients, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coeffs.to_dict(), fh, indent=2)
        fh.write("\n")


def load_coefficients(path: str) -> FitCoefficients:
    try:
        with open(path, encoding="utf-8") as fh:
            return FitCoefficients.from_dict(json.load(fh))
    except OSError as exc:
        raise DomainError(f"cannot read coefficients file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"coefficients file is not valid JSON: {exc}") from exc
