"""Independent numerical oracles for the test suite.

Deliberately primitive implementations, sharing no code with the package:
plain bisection, recursive adaptive Simpson, central differences, decimal
arithmetic where doubles would overflow or cancel, exact rational least
squares, exact rational power series, and exact rational sums of the fitted
series, the pressure series and both dE/dP expansions.  These are the
reference against which production closed forms are validated; keep them
boring.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Sequence


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


def eta_oracle(n: float, xi: float) -> float:
    """sqrt(n^2 - xi^2) in 60-digit decimal, which neither cancels nor overflows."""
    with localcontext() as ctx:
        ctx.prec = 60
        nd, xd = Decimal(n), Decimal(xi)
        return float((nd * nd - xd * xd).sqrt())


def _decimal_sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """Taylor series of sin and cos, summed until a term no longer changes
    the sum (the recipes of the decimal module documentation)."""
    sums = []
    for k, term in ((1, x), (0, Decimal(1))):
        total, last = term, None
        while total != last:
            last = total
            term = -term * x * x / ((k + 1) * (k + 2))
            total += term
            k += 2
        sums.append(total)
    return sums[0], sums[1]


def ground_root_eta_oracle(n: float) -> tuple[float, float]:
    """(xi, eta) of the ground level for 0 < n <= 1e12, in 60-digit decimal.

    Bisection of xi sin(xi) - cos(xi) sqrt(n^2 - xi^2) over (0, min(n, pi/2)),
    where it changes sign once, then eta = sqrt(n^2 - xi^2) from the decimal
    root.  200 halvings leave xi within 2^-200 of the bracket width; the
    cancellation in n^2 - xi^2 costs 2 log10(1/n) of the 60 digits, so eta
    keeps 36 at n = 1e-12.  The upper end is pi/2 of the double math.pi,
    6e-17 below the true pi/2; the root lies about pi/(2n) below pi/2, so
    the bracket holds it while n < ~1e15.
    """
    assert 0.0 < n <= 1e12, n
    with localcontext() as ctx:
        ctx.prec = 60
        nd = Decimal(n)

        def g(x: Decimal) -> Decimal:
            sin, cos = _decimal_sin_cos(x)
            return x * sin - cos * (nd * nd - x * x).sqrt()

        lo, hi = Decimal(0), min(nd, Decimal(math.pi) / 2)
        for _ in range(200):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        xi = (lo + hi) / 2
        return float(xi), float((nd * nd - xi * xi).sqrt())


# pi to 100 significant digits
PI_DIGITS = Decimal(
    "3.141592653589793238462643383279502884197169399375105820974944592307816406286208998628034825342117068"
)


def branch_root_eta_oracle(
    n: float, branch: int, halvings: int = 200
) -> tuple[float, float]:
    """(xi, eta) of the level on branch k >= 1, in 60-digit decimal.

    Bisection in d = xi - k pi of xi sin(d) - cos(d) sqrt((e - d)(n + xi))
    over (0, min(e, pi/2)), e = n - k pi formed from the 100-digit pi, where
    it changes sign once (the cos-multiplied residual times (-1)^k); then
    eta = sqrt((e - d)(n + xi)), with no cancellation of n^2 - xi^2.  200
    halvings leave d within 2^-200 of the bracket width.  For xi alone 80
    are plenty: they leave d within pi/2 * 2^-80 = 1.3e-24, under 1e-8 of
    an ulp of xi > pi; eta next to a threshold needs all 200.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        nd = Decimal(n)
        base = branch * PI_DIGITS
        e = nd - base
        assert e > 0, (n, branch)

        def g(d: Decimal) -> Decimal:
            sin, cos = _decimal_sin_cos(d)
            return (base + d) * sin - cos * ((e - d) * (nd + base + d)).sqrt()

        lo, hi = Decimal(0), min(e, PI_DIGITS / 2)
        for _ in range(halvings):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        d = (lo + hi) / 2
        return float(base + d), float(((e - d) * (nd + base + d)).sqrt())


# pi/2 to 55 significant digits
HALF_PI = Fraction("1.570796326794896619231321691639751442098584699687552910")


def _series_product(a: Sequence[Fraction], b: Sequence[Fraction], terms: int) -> list[Fraction]:
    """Product of two power series given by their coefficients, cut after terms."""
    out = [Fraction(0)] * terms
    for i, x in enumerate(a[:terms]):
        for j, y in enumerate(b[: terms - i]):
            out[i + j] += x * y
    return out


def ground_series_small(terms: int) -> list[Fraction]:
    """Exact u_k of the ground root xi = n * sum_k u_k n^(2k) for small n.

    Squared, and with cos(xi) > 0 on (0, pi/2), xi sin(xi) = cos(xi)
    sqrt(n^2 - xi^2) is xi = n cos(xi).  In u = xi/n and m = n^2 that is
    u = sum_j (-m)^j u^(2j)/(2j)!, a fixed point in which each pass fixes
    one more coefficient.
    """
    u = [Fraction(1)] + [Fraction(0)] * (terms - 1)
    for _ in range(terms):
        u2 = _series_product(u, u, terms)
        new, power = [Fraction(0)] * terms, [Fraction(1)] + [Fraction(0)] * (terms - 1)
        for j in range(terms):
            for k in range(terms - j):
                new[j + k] += Fraction((-1) ** j, math.factorial(2 * j)) * power[k]
            power = _series_product(power, u2, terms)
        u = new
    return u


def ground_series_large(terms: int) -> list[Fraction]:
    """d_k of the ground root xi = pi/2 - sum_k d_k t^k, t = 1/(n + 1), for large n.

    tan(delta) = cot(xi) = xi/eta for delta = pi/2 - xi, so sin(delta) = xi/n
    with n = (1 - t)/t: delta = arcsin((pi/2 - delta) r), r = t/(1 - t),
    arcsin(w) = sum_j (2j)!/(4^j j!^2 (2j + 1)) w^(2j+1), solved as a fixed
    point like ground_series_small.  pi/2 is HALF_PI, so each d_k is within
    about 1e-50 relative of the true one.
    """
    r = [Fraction(0)] + [Fraction(1)] * (terms - 1)
    d = [Fraction(0)] * terms
    for _ in range(terms):
        w = _series_product([HALF_PI - d[0], *(-x for x in d[1:])], r, terms)
        w2 = _series_product(w, w, terms)
        new, power = [Fraction(0)] * terms, w
        for j in range(terms):
            c = Fraction(math.factorial(2 * j), 4**j * math.factorial(j) ** 2 * (2 * j + 1))
            new = [a + c * b for a, b in zip(new, power)]
            power = _series_product(power, w2, terms)
        d = new
    return d


def _decimal_sinh(z: Decimal) -> Decimal:
    return (z.exp() - (-z).exp()) / 2


def interval_probability_oracle(z: float, gamma: float) -> float:
    """(z g + sinh(z g)) / (z + sinh z) in 60-digit decimal arithmetic, with
    top and bottom times 2 exp(-z) so that no exponent is positive:

        (2 z g e^-z + [e^(z (g - 1)) - e^(-z (g + 1))]) / (2 z e^-z + [1 - e^(-2 z)]).

    A power of e below decimal's range underflows to 0, so this does not
    overflow for any double z > 0; the bracketed differences, taken first,
    vanish where z is tiny rather than swallow the 2 z terms."""
    with localcontext() as ctx:
        ctx.prec = 60
        zd, g = Decimal(z), Decimal(gamma)
        num = 2 * zd * g * (-zd).exp() + ((zd * (g - 1)).exp() - (-zd * (g + 1)).exp())
        return float(num / (2 * zd * (-zd).exp() + (1 - (-2 * zd).exp())))


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


def pressure_derivative_oracle(
    a: float, K: float, c, m: float, V0: float, gamma: float, hbar: float,
) -> float:
    """dR/dP by a 60-digit central difference of the composed R(a) and P(a):
    beta(a) = sqrt(2 m V0 (1 - sum c_i (K/a)^i))/hbar, z = 2 a beta,
    R = (z g + sinh(z g))/(z + sinh z) and P = V0 sum i c_i K^i/a^(i+1).
    The step 1e-20 a leaves truncation and rounding near 1e-40 relative."""
    with localcontext() as ctx:
        ctx.prec = 60
        cd = [Decimal(ck) for ck in c]
        Kd, md, V0d, g, hb = Decimal(K), Decimal(m), Decimal(V0), Decimal(gamma), Decimal(hbar)

        def R(w: Decimal) -> Decimal:
            bracket = 1 - sum(ck * (Kd / w) ** i for i, ck in enumerate(cd))
            z = 2 * w * (2 * md * V0d * bracket).sqrt() / hb
            return (z * g + _decimal_sinh(z * g)) / (z + _decimal_sinh(z))

        def P(w: Decimal) -> Decimal:
            return V0d * sum(i * ck * Kd ** i / w ** (i + 1) for i, ck in enumerate(cd))

        ad = Decimal(a)
        h = ad * Decimal("1e-20")
        return float((R(ad + h) - R(ad - h)) / (P(ad + h) - P(ad - h)))


def _exact_least_squares(
    points: Sequence[tuple[float, float]],
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    # (u, y, c): the samples as Fractions and the exact coefficients.
    us = [Fraction(1.0 / n) for n, _ in points]
    ys = [Fraction(y) for _, y in points]
    design = [[u**k for k in range(6)] for u in us]
    system = [
        [sum(row[j] * row[k] for row in design) for k in range(6)]
        + [sum(row[j] * y for row, y in zip(design, ys))]
        for j in range(6)
    ]
    for p in range(6):
        for r in range(p + 1, 6):
            f = system[r][p] / system[p][p]
            system[r] = [a - f * b for a, b in zip(system[r], system[p])]
    c = [Fraction(0)] * 6
    for j in reversed(range(6)):
        c[j] = (system[j][6] - sum(system[j][k] * c[k] for k in range(j + 1, 6))) / system[j][j]
    return us, ys, c


def refit_oracle(points: Sequence[tuple[float, float]]) -> list[float]:
    """Exact least-squares coefficients of the degree-5 series in u = 1/n.

    u is the rounded float 1.0/n and the design holds its exact powers; the
    normal equations are formed and solved by Gaussian elimination in
    Fractions, so the only rounding is the final conversion to float.
    """
    return [float(ck) for ck in _exact_least_squares(points)[2]]


def refit_rms_oracle(points: Sequence[tuple[float, float]]) -> float:
    """RMS residual of the exact least-squares solution, summed in Fractions."""
    us, ys, c = _exact_least_squares(points)
    squares = sum((sum(ck * u**k for k, ck in enumerate(c)) - y) ** 2 for u, y in zip(us, ys))
    return math.sqrt(squares / len(us))


def _poly_value(p: Sequence[Fraction], x: Fraction) -> Fraction:
    value = Fraction(0)
    for ck in reversed(p):
        value = value * x + ck
    return value


def _poly_remainder(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    # Remainder of num / den (ascending coefficients, den with a nonzero lead),
    # with its zero leading coefficients dropped.
    num = list(num)
    while len(num) >= len(den):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        for k, dk in enumerate(den):
            num[shift + k] -= factor * dk
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def smallest_root_oracle(
    coeffs: Sequence[float], lo: float, hi: float
) -> float | None:
    """Smallest root in (lo, hi] of sum coeffs[i] t^i, or None.

    The float coefficients are taken exactly as Fractions.  The Sturm
    sequence p, p', -rem(p, p'), ... counts the distinct roots in (a, b] as
    V(a) - V(b), V the sign changes with zeros dropped, so roots closer
    than any float spacing are still told apart.  Bisection keeps a
    (lo, hi] holding at least one root until both ends round to the same
    double, which is then the root correctly rounded.
    """
    p = [Fraction(ck) for ck in coeffs]
    while p and p[-1] == 0:
        p.pop()
    assert p, "oracle polynomial is identically zero"
    sturm = [p, [k * ck for k, ck in enumerate(p)][1:]]
    while sturm[-1]:
        sturm.append([-r for r in _poly_remainder(sturm[-2], sturm[-1])])
    sturm.pop()

    def changes(x: Fraction) -> int:
        signs = [v > 0 for v in (_poly_value(q, x) for q in sturm) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    a, b = Fraction(lo), Fraction(hi)
    v_a = changes(a)
    if v_a == changes(b):
        return None
    for _ in range(2000):
        if float(a) == float(b):
            break
        mid = (a + b) / 2
        v_mid = changes(mid)
        if v_mid < v_a:
            b = mid
        else:
            a, v_a = mid, v_mid
    return float(b)


def _exact_sum(terms: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    # (sum, sum of magnitudes) of exact terms.
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


def fit_series_oracle(c: Sequence[float], n: float) -> tuple[Fraction, Fraction]:
    """(value, sum of |terms|) of sum_i c_i / n^i, exact in Fractions."""
    u = 1 / Fraction(n)
    return _exact_sum([Fraction(ck) * u**i for i, ck in enumerate(c)])


def pressure_oracle(
    a: float, K: float, c: Sequence[float], V0: float
) -> tuple[Fraction, Fraction]:
    """(value, sum of |terms|) of V0 sum_{i=1..5} i c_i K^i / a^(i+1), exact."""
    a, K, V0 = Fraction(a), Fraction(K), Fraction(V0)
    return _exact_sum([V0 * i * Fraction(c[i]) * K**i / a ** (i + 1) for i in range(1, 6)])


def small_k_oracle(
    a: float, K: float, c: Sequence[float], variant: str
) -> tuple[Fraction, Fraction]:
    """(value, sum of |terms|) of a/2 - K c2/(2 c1) + 3 K^2 (c2^2 - x)/(2 a c1^2),
    x = c3^2 (printed) or c1 c3 (consistent), exact; the last term counts as
    its two parts, so that their cancellation is not charged to the sum."""
    a, K = Fraction(a), Fraction(K)
    c = [Fraction(ck) for ck in c]
    x = c[3] ** 2 if variant == "printed" else c[1] * c[3]
    scale = 3 * K**2 / (2 * a * c[1] ** 2)
    return _exact_sum([a / 2, -K * c[2] / (2 * c[1]), scale * c[2] ** 2, -scale * x])


def small_width_oracle(a: float, K: float, c: Sequence[float]) -> tuple[Fraction, Fraction]:
    """(value, sum of |terms|) of a/6 + (1/45)(c4/c5) a^2/K, exact."""
    a, K = Fraction(a), Fraction(K)
    return _exact_sum([a / 6, Fraction(c[4]) * a**2 / (45 * Fraction(c[5]) * K)])
