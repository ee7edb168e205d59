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
from operator import index, mul

from .errors import DomainError, NumericalError, SingularSystem, check_finite, check_positive
from .errors import check_real, value_text
from .spectrum import energy_ratio

N_COEFFS = 6


class FitGrid(namedtuple("FitGrid", "n_start n_stop n_count")):
    """Uniform sample grid in strength n."""

    __slots__ = ()

    def __new__(cls, n_start: float, n_stop: float, n_count: int) -> FitGrid:
        try:
            n_count = index(n_count)
        except TypeError:
            raise DomainError(f"n_count must be an integer, got {n_count!r}") from None
        # n_count too: the step (n_stop - n_start)/(n_count - 1) needs its float.
        n_start, n_stop, _ = check_real("n_start n_stop n_count", n_start, n_stop, n_count)
        if not (1.0 <= n_start < n_stop):
            raise DomainError(f"need 1 <= n_start < n_stop, got [{n_start}, {n_stop}]")
        if n_count < 2 * N_COEFFS:
            raise DomainError(f"n_count must be at least {2 * N_COEFFS}, got {value_text(n_count)}")
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

    def __new__(cls, c, sigma: float, source: str, grid: FitGrid | None = None) -> FitCoefficients:
        c = tuple(c)
        if len(c) != N_COEFFS:
            raise DomainError(f"expected {N_COEFFS} coefficients, got {len(c)}")
        *c, sigma = check_real("c0 c1 c2 c3 c4 c5 sigma", *c, sigma)
        return super().__new__(cls, tuple(c), sigma, source, grid)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def to_dict(self) -> dict:
        grid = None if self.grid is None else self.grid._asdict()
        return {"c": list(self.c), "sigma": self.sigma, "source": self.source, "grid": grid}

    @classmethod
    def from_dict(cls, data: dict) -> "FitCoefficients":
        try:
            c, sigma, source, grid = data["c"], data["sigma"], str(data["source"]), data.get("grid")
            if grid is not None:
                grid = FitGrid(grid["n_start"], grid["n_stop"], grid["n_count"])
            return cls(c, sigma, source, grid)
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
    return [(n, energy_ratio(n)) for n in grid.points()]


def fit_inverse_poly(
    points: list[tuple[float, float]], grid: FitGrid | None = None
) -> FitCoefficients:
    """Least-squares fit of the degree-5 series in 1/n to (n, E/V0) pairs.

    Forsythe's method: monic polynomials p_k in u = 1/n, orthogonal on the
    samples, from p_{k+1} = (u - alpha_k) p_k - beta_k p_{k-1}.  The residual
    r, from E/V0 on, is orthogonalised against each p_k in turn by b_k =
    <p_k, r>/|p_k|^2 (math.fsum inner products), and the monomial coefficients
    sum b_k p_k come from the same recurrence.  |p_k| is R_kk of the
    Vandermonde QR, so |p_k|^2 <= (eps*m)^2 * m (lstsq's default rcond against
    |p_0|^2 = m) raises SingularSystem.  sigma is the RMS residual, taken
    from r after its last update: y - sum b_k p_k at the samples, with no
    second evaluation of the series.
    """
    m = len(points)
    if m < 2 * N_COEFFS:
        raise DomainError(f"need at least {2 * N_COEFFS} points, got {m}")
    ns = [float(n) for n, _ in points]
    ys = [float(y) for _, y in points]
    if not all(map((0.0).__lt__, ns)):  # 0 < n, NaN refused
        raise DomainError("sample strengths must be positive")
    us = [1.0 / n for n in ns]
    if len(set(us)) != m:
        raise DomainError("sample points must have distinct n values (and distinct 1/n)")
    # |p_k(u)| <= max(u)^k bounds every inner product; math.prod gives inf where ** raises.
    u5 = math.prod([max(us)] * 5)
    if not math.isfinite(m * u5 * u5 + sum(map(mul, ys, ys))):
        raise NumericalError("sample points leave the float range: (E/V0)^2 and (1/n)^10 must be finite")

    tol = (math.ulp(1.0) * m) ** 2 * m
    b, alpha = math.fsum(ys) / m, math.fsum(us) / m  # k = 0 in closed form: p_0 = 1, |p_0|^2 = m
    p_prev, p, norm_prev, r = [1.0] * m, [u - alpha for u in us], m, [y - b for y in ys]
    zeros = [0.0] * (N_COEFFS - 2)
    a_prev, a, c = [1.0, 0.0, *zeros], [-alpha, 1.0, *zeros], [b, 0.0, *zeros]  # of p_0, p_1 and the fit
    for k in range(1, N_COEFFS):
        pp = list(map(mul, p, p))
        norm = math.fsum(pp)
        if norm <= tol:
            raise SingularSystem(f"design matrix rank {k} < {N_COEFFS}")
        b = math.fsum(map(mul, p, r)) / norm
        c = [ci + b * ai for ci, ai in zip(c, a)]
        r = [ri - b * pi for ri, pi in zip(r, p)]
        if k == N_COEFFS - 1:
            break
        alpha, beta = math.fsum(map(mul, us, pp)) / norm, norm / norm_prev
        p_prev, p = p, [(u - alpha) * pi - beta * qi for u, pi, qi in zip(us, p, p_prev)]
        a_prev, a = a, [s - alpha * ai - beta * qi for s, ai, qi in zip([0.0, *a], a, a_prev)]
        norm_prev = norm
    sigma = math.sqrt(math.fsum(map(mul, r, r)) / m)
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
    (n,) = check_positive("n", n)
    return check_finite(_horner(coeffs.c, 1.0 / n), "fitted series", "n", n)


def dump_coefficients(coeffs: FitCoefficients, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(coeffs.to_dict(), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise DomainError(f"cannot write coefficients file: {exc}") from exc


def load_coefficients(path: str) -> FitCoefficients:
    try:
        with open(path, encoding="utf-8") as fh:
            return FitCoefficients.from_dict(json.load(fh))
    except OSError as exc:
        raise DomainError(f"cannot read coefficients file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"coefficients file is not valid JSON: {exc}") from exc
