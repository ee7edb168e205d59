"""Independent numerical oracles for the test suite.

Deliberately primitive implementations, sharing no code with the package:
plain bisection, recursive adaptive Simpson, central differences, and
decimal arithmetic where doubles would overflow.  These are
the reference against which production closed forms are validated; keep them
boring.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import Callable


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, iterations: int = 200
) -> float:
    """Plain bisection; f(lo) and f(hi) must differ in sign."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    assert (f_lo > 0.0) != (f_hi > 0.0), "oracle bracket does not change sign"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def even_root_oracle(n: float) -> float:
    """Ground-state root of x*tan(x) = sqrt(n^2 - x^2) by bisection on the
    form multiplied through by cos(x) (no tan pole inside the bracket)."""

    def g(x: float) -> float:
        return x * math.sin(x) - math.cos(x) * math.sqrt(max(n * n - x * x, 0.0))

    return bisect_root(g, 1e-300, min(0.5 * math.pi, n))


def branch_root_oracle(n: float, branch: int) -> float:
    """Root on branch k >= 1 by bisection of the cos-multiplied form over
    (k*pi, min(k*pi + pi/2, n))."""

    def g(x: float) -> float:
        return x * math.sin(x) - math.cos(x) * math.sqrt(max(n * n - x * x, 0.0))

    lo = branch * math.pi
    return bisect_root(g, lo, min(lo + 0.5 * math.pi, n))


def _decimal_sinh(z: Decimal) -> Decimal:
    return (z.exp() - (-z).exp()) / 2


def interval_probability_oracle(z: float, gamma: float) -> float:
    """(z g + sinh(z g)) / (z + sinh z) in 60-digit decimal arithmetic, which
    does not overflow for any double z."""
    with localcontext() as ctx:
        ctx.prec = 60
        zd, zg = Decimal(z), Decimal(z) * Decimal(gamma)
        return float((zg + _decimal_sinh(zg)) / (zd + _decimal_sinh(zd)))


def normalization_oracle(a: float, beta: float) -> float:
    """C = 1/(2 sqrt(a) sqrt(1 + sinh(z)/z)), z = 2 a beta, in decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        z = 2 * Decimal(a) * Decimal(beta)
        return float(1 / (2 * Decimal(a).sqrt() * (1 + _decimal_sinh(z) / z).sqrt()))


def adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-12
) -> float:
    """Recursive adaptive Simpson quadrature with absolute tolerance."""

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + recurse(
            m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 60)


def central_difference(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)
