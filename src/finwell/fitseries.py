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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SingularSystem
from .spectrum import energy_ratio

N_COEFFS = 6


@dataclass(frozen=True)
class FitGrid:
    """Uniform sample grid in strength n."""

    n_start: float
    n_stop: float
    n_count: int

    def __post_init__(self) -> None:
        if not (1.0 <= self.n_start < self.n_stop):
            raise DomainError(
                f"need 1 <= n_start < n_stop, got [{self.n_start}, {self.n_stop}]"
            )
        if self.n_count < 2 * N_COEFFS:
            raise DomainError(
                f"n_count must be at least {2 * N_COEFFS}, got {self.n_count}"
            )

    def points(self) -> np.ndarray:
        return np.linspace(self.n_start, self.n_stop, self.n_count)


DEFAULT_GRID = FitGrid(1.0, 10.0, 13)


@dataclass(frozen=True)
class FitCoefficients:
    """Six series constants plus the fit's RMS residual and provenance."""

    c: tuple[float, float, float, float, float, float]
    sigma: float
    source: str               # "paper" or "refit"
    grid: FitGrid | None = None

    def to_dict(self) -> dict:
        grid = None
        if self.grid is not None:
            grid = {
                "n_start": self.grid.n_start,
                "n_stop": self.grid.n_stop,
                "n_count": self.grid.n_count,
            }
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
            return cls(c=tuple(float(x) for x in c), sigma=float(data["sigma"]),
                       source=str(data["source"]), grid=grid)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed coefficients document: {exc}") from exc


# Published constants of the inverse-power series and the quoted sigma.
PAPER_FIT = FitCoefficients(
    c=(-0.000618, 0.018006, 2.259278, -3.678692, 2.908830, -0.960535),
    sigma=2.2e-6,
    source="paper",
)


def sample_energies(grid: FitGrid) -> list[tuple[float, float]]:
    """(n, E/V0) pairs for the ground branch over the grid."""
    return [(float(n), energy_ratio(float(n))) for n in grid.points()]


def fit_inverse_poly(
    points: Sequence[tuple[float, float]], grid: FitGrid | None = None
) -> FitCoefficients:
    """Least-squares fit of the degree-5 series in 1/n to (n, E/V0) pairs.

    Solved via SVD on the Vandermonde matrix in u = 1/n rather than normal
    equations; the system is ill-conditioned near n = 1.  sigma is the RMS
    residual over the input points.
    """
    if len(points) < 2 * N_COEFFS:
        raise DomainError(f"need at least {2 * N_COEFFS} points, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if len(np.unique(ns)) != len(ns):
        raise DomainError("sample points must have distinct n values")
    if np.any(ns <= 0.0):
        raise DomainError("sample strengths must be positive")

    design = np.vander(1.0 / ns, N_COEFFS, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
    if rank < N_COEFFS:
        raise SingularSystem(f"design matrix rank {rank} < {N_COEFFS}")
    residuals = design @ coeffs - ys
    sigma = math.sqrt(float(np.mean(residuals * residuals)))
    return FitCoefficients(
        c=tuple(float(ck) for ck in coeffs), sigma=sigma, source="refit", grid=grid
    )


def refit(grid: FitGrid = DEFAULT_GRID) -> FitCoefficients:
    """Sample the exact solver on the grid and fit; records grid provenance."""
    return fit_inverse_poly(sample_energies(grid), grid=grid)


def _series_value(c, n):
    # sum_i c_i / n^i by Horner in 1/n; floats or arrays.
    u = 1.0 / n
    acc = 0.0
    for ci in reversed(c):
        acc = acc * u + ci
    return acc


def eval_fit(coeffs: FitCoefficients, n: float) -> float:
    """Series value E/V0 at strength n (Horner evaluation in 1/n)."""
    if not math.isfinite(n) or n <= 0.0:
        raise DomainError(f"strength n must be positive, got {n}")
    return _series_value(coeffs.c, n)


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
