"""The invariant measure m = 2 da db on the Farey triangle.

Closed forms live next to an adaptive-quadrature oracle so every constant
is checked by two independent routes.  The central object is the mass

    H(x) = m({R < x}),    R(a, b) = 1/(ab),

obtained by integrating hyperbola slices over the triangle.  The hyperbola
ab = u is tangent to the line a + b = 1 at u = 1/4, which produces the two
kinks of the gap law (at R-levels 1 and 4):

    H(x) = 2 (1 - u + u log u),                              1/4 <= u = 1/x,
    H(x) = 2 (1 - u + u log u - r/2 + u log(a+/a-)),         u < 1/4,

with r = sqrt(1 - 4u) and a+- = (1 +- r)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import loggamma, zeta

from .core import DomainError
from .excursions import peak_length

PI2_3 = math.pi**2 / 3

#: exact excursion-peak integrals: int 1/M dm and int M dm
MIN_PEAK_INTEGRAL = (2 / 3) * (13 - 8 * math.sqrt(2))  # ~ 1.1241943340
MAX_PEAK_INTEGRAL = (2 / 3) * (7 - 4 * math.sqrt(2))   # ~ 0.8954305003


# -- tiles -------------------------------------------------------------------

def tile_measure(k: int) -> Fraction:
    """m(Omega_k): 1/3 for k = 1, 8/(k(k+1)(k+2)) for k >= 2 (m is twice area)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if k == 1:
        return Fraction(1, 3)
    return Fraction(8, k * (k + 1) * (k + 2))


def tile_vertices(k: int) -> list:
    """Corners of Omega_k in cyclic order: a triangle for k = 1, else the
    quadrilateral cut out by b = (1+a)/k, a = 1, b = (1+a)/(k+1), a+b = 1."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if k == 1:
        return [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(1, 3), Fraction(2, 3))]
    return [
        (Fraction(1), Fraction(2, k)),
        (Fraction(1), Fraction(2, k + 1)),
        (Fraction(k, k + 2), Fraction(2, k + 2)),
        (Fraction(k - 1, k + 1), Fraction(2, k + 1)),
    ]


def tile_contains(k: int, p) -> bool:
    """Half-plane membership in Omega_k: (1+a)/(k+1) < b <= (1+a)/k, inside Omega.

    Written multiplicatively so exact scalars stay exact.
    """
    a, b = p
    if not (0 < a <= 1 and 0 < b <= 1 and a + b > 1):
        return False
    return (k + 1) * b > 1 + a >= k * b


def tile_measure_shoelace(k: int) -> Fraction:
    """Independent tile mass from the vertex polygon (shoelace formula, exact)."""
    v = tile_vertices(k)
    twice_area = sum(
        v[i][0] * v[(i + 1) % len(v)][1] - v[(i + 1) % len(v)][0] * v[i][1]
        for i in range(len(v))
    )
    return abs(twice_area)  # m = 2 * area


def tile_partition_defect(k_max: int = 10**6) -> float:
    """|sum_{k <= k_max} m(Omega_k) + tail - 1| with the exact telescoped tail.

    The tail past k_max is 4/((k_max+1)(k_max+2)).
    """
    s = math.fsum(8.0 / (k * (k + 1) * (k + 2)) for k in range(2, k_max + 1))
    tail = 4.0 / ((k_max + 1) * (k_max + 2))
    return abs(1.0 / 3.0 + s + tail - 1.0)


# -- the gap law -------------------------------------------------------------

def roof_cdf(x: float) -> float:
    """Closed-form H(x) = m({R < x}); 0 for x <= 1, kinks at x = 1 and x = 4."""
    if x <= 1:
        return 0.0
    if math.isinf(x):
        return 1.0
    u = 1.0 / x
    base = 1.0 - u + u * math.log(u)
    if u >= 0.25:
        return 2.0 * base
    r = math.sqrt(1.0 - 4.0 * u)
    return 2.0 * (base - 0.5 * r + u * math.log((1.0 + r) / (1.0 - r)))


@dataclass
class RegionMeasureResult:
    value: float
    method: str           # "closed-form" | "quadrature"
    estimated_error: float


def _band_breakpoints(u1: float, u2: float) -> list:
    """a-values where the slice of {u1 < ab < u2} over Omega changes shape."""
    pts = set()
    for u in (u1, u2):
        if 0.0 < u < 1.0:
            pts.add(u)
        if 0.0 < u <= 0.25:
            r = math.sqrt(1.0 - 4.0 * u)
            pts.add((1.0 - r) / 2.0)
            pts.add((1.0 + r) / 2.0)
    return sorted(p for p in pts if 0.0 < p < 1.0)


def roof_region_measure(c: float, d: float, method: str = "closed-form") -> RegionMeasureResult:
    """m({c < R < d}) for 0 <= c <= d <= inf.

    The quadrature route integrates exact slice lengths of the hyperbola
    band {1/d < ab < 1/c} adaptively, splitting at the known shape changes.
    """
    if not 0 <= c <= d:
        raise DomainError("need 0 <= c <= d")
    if method == "closed-form":
        return RegionMeasureResult(roof_cdf(d) - roof_cdf(c), "closed-form", 0.0)
    if method != "quadrature":
        raise DomainError(f"unknown method {method!r}")
    u1 = 0.0 if math.isinf(d) else 1.0 / d
    u2 = math.inf if c == 0 else 1.0 / c

    def slice_len(a: float) -> float:
        lo = max(1.0 - a, u1 / a) if u1 > 0.0 else 1.0 - a
        hi = 1.0 if math.isinf(u2) else min(1.0, u2 / a)
        return max(0.0, hi - lo)

    val, err = integrate.quad(
        slice_len, 0.0, 1.0, points=_band_breakpoints(u1, u2), limit=200,
        epsabs=1e-12, epsrel=1e-12,
    )
    return RegionMeasureResult(2.0 * val, "quadrature", 2.0 * err)


def hall_cdf(d: float, interval_length: float = 1.0) -> float:
    """Limit law of normalized Farey gaps: G(d) = m(R^{-1}(0, pi^2 d / (3 |I|))).

    Zero up to d = 3|I|/pi^2, second kink at d = 12|I|/pi^2, tends to 1.
    """
    if not 0 < interval_length <= 1:
        raise DomainError("interval_length must lie in (0, 1]")
    if d <= 0:
        return 0.0
    return roof_cdf(math.pi**2 * d / (3 * interval_length))


def hall_kinks(interval_length: float = 1.0) -> tuple:
    """The two non-differentiability abscissae of the gap law."""
    return (3 * interval_length / math.pi**2, 12 * interval_length / math.pi**2)


# -- integrals over the section ----------------------------------------------

def integrate_over_section(f: Callable, inner_breaks: Callable | None = None,
                           epsabs: float = 1e-11) -> tuple:
    """Adaptive nested quadrature of f against m over the triangle.

    inner_breaks(a), when given, lists known kink locations of b -> f(a, b).
    Returns (value, error estimate).
    """
    def inner(a):
        lo = 1.0 - a
        pts = None
        if inner_breaks is not None:
            pts = [p for p in inner_breaks(a) if lo < p < 1.0] or None
        v, _ = integrate.quad(lambda b: f(a, b), lo, 1.0, points=pts,
                              limit=200, epsabs=epsabs, epsrel=1e-12)
        return v

    val, err = integrate.quad(inner, 0.0, 1.0, limit=300, epsabs=epsabs, epsrel=1e-12)
    return 2.0 * val, 2.0 * err


def roof_integral(method: str = "closed-form") -> float:
    """int R dm = pi^2/3 (the volume of the ambient homogeneous space)."""
    if method == "closed-form":
        return PI2_3
    if method != "quadrature":
        raise DomainError(f"unknown method {method!r}")
    val, _ = integrate_over_section(lambda a, b: 1.0 / (a * b))
    return val


def roof_power_integral_truncated(p: float, r_max: float) -> float:
    """Quadrature of int_{R <= r_max} R^p dm; diverges with r_max iff p >= 2.

    The inner b-integral over the band {ab >= 1/r_max} is analytic, leaving a
    1D adaptive integral with known breakpoints.
    """
    u1 = 1.0 / r_max

    def antider(b: float) -> float:
        if p == 1.0:
            return math.log(b)
        return b ** (1.0 - p) / (1.0 - p)

    def slice_val(a: float) -> float:
        lo = max(1.0 - a, u1 / a)
        if lo >= 1.0:
            return 0.0
        return a ** (-p) * (antider(1.0) - antider(lo))

    val, _ = integrate.quad(slice_val, 0.0, 1.0, points=_band_breakpoints(u1, math.inf),
                            limit=300, epsabs=1e-10, epsrel=1e-10)
    return 2.0 * val


def moment_integral(s, t):
    """B_{s,t} = int x^s y^t dm = 2 (1/((s+1)(t+1)) - G(s+1)G(t+1)/G(s+t+3)).

    Defined for Re s, Re t > -1, with the limiting values at the poles the
    theory assigns: B_{-1,0} = B_{0,-1} = 2 and B_{-1,-1} = pi^2/3.
    """
    special = {(-1, 0): 2.0, (0, -1): 2.0, (-1, -1): PI2_3}
    key = (s, t)
    if key in special:
        return special[key]
    sr = s.real if isinstance(s, complex) else float(s)
    tr = t.real if isinstance(t, complex) else float(t)
    if not (-1 < sr < math.inf and -1 < tr < math.inf):
        raise DomainError(f"B_{{{s},{t}}} undefined: exponents must be finite and exceed -1")
    g = np.exp(loggamma(s + 1) + loggamma(t + 1) - loggamma(s + t + 3))
    val = 2.0 * (1.0 / ((s + 1) * (t + 1)) - g)
    if isinstance(s, complex) or isinstance(t, complex):
        return complex(val)
    return float(val.real if isinstance(val, complex) else val)


def kappa_moment(alpha: float, head: int = 1000) -> float:
    """int kappa^alpha dm = sum_k k^alpha m(Omega_k), alpha in (0, 2).

    Head terms are summed directly; the tail uses the expansion
    8 k^{alpha-3} / ((1+1/k)(1+2/k)) = 8 sum_j (-1)^j (2^{j+1}-1) k^{alpha-3-j}
    whose pieces are Hurwitz zeta values, giving ~1e-15 truncation error.
    """
    if not 0 < alpha < 2:
        raise DomainError("alpha must lie in (0, 2); the moment diverges at 2")
    s = math.fsum(k**alpha * 8.0 / (k * (k + 1) * (k + 2)) for k in range(2, head + 1))
    tail = 0.0
    sign = 1.0
    for j in range(60):
        term = sign * (2.0 ** (j + 1) - 1.0) * float(zeta(3.0 - alpha + j, head + 1))
        tail += term
        if abs(term) < 1e-18:
            break
        sign = -sign
    return 1.0 / 3.0 + s + 8.0 * tail


def kappa_moment_tail_bound(alpha: float) -> float:
    """Crude analytic bound 1/3 + 8 zeta(3 - alpha) dominating the moment."""
    return 1.0 / 3.0 + 8.0 * float(zeta(3.0 - alpha, 1))


def excursion_integrals(method: str = "closed-form") -> tuple:
    """(int 1/M dm, int M dm) for the excursion peak M = max(a, b, 1/(a+b)).

    Exact values (2/3)(13 - 8 sqrt 2) and (2/3)(7 - 4 sqrt 2).
    """
    if method == "closed-form":
        return (MIN_PEAK_INTEGRAL, MAX_PEAK_INTEGRAL)
    if method != "quadrature":
        raise DomainError(f"unknown method {method!r}")

    def breaks(a: float) -> list:
        return [a, (-a + math.sqrt(a * a + 4.0)) / 2.0, 1.0 / a - a]

    lo, _ = integrate_over_section(lambda a, b: 1.0 / peak_length((a, b)), breaks)
    hi, _ = integrate_over_section(lambda a, b: peak_length((a, b)), breaks)
    return (lo, hi)


def grid_measure(indicator: Callable, n: int = 4000, block: int = 256) -> float:
    """Midpoint-grid mass of {indicator} ∩ Omega; indicator takes coordinate arrays.

    First-order accurate in 1/n along the region boundary; good enough as an
    independent oracle for percent-level checks of composite regions.
    """
    h = 1.0 / n
    a = (np.arange(n, dtype=np.float64) + 0.5) * h
    count = 0
    for i0 in range(0, n, block):
        b = (np.arange(i0, min(i0 + block, n), dtype=np.float64) + 0.5) * h
        A, B = np.meshgrid(a, b)
        mask = (A + B > 1.0) & indicator(A, B)
        count += int(np.count_nonzero(mask))
    return 2.0 * count * h * h
