"""The invariant measure m = 2 da db on the Farey triangle.

Closed forms live next to an adaptive-quadrature oracle so every constant
is checked by two independent routes.  The module imports neither numpy
nor scipy: the closed forms are pure Python, and the quadrature oracles
import scipy on their first call.  The central object is the mass

    H(x) = m({R < x}),    R(a, b) = 1/(ab),

obtained by integrating hyperbola slices over the triangle.  The hyperbola
ab = u is tangent to the line a + b = 1 at u = 1/4, which produces the two
kinks of the gap law (at R-levels 1 and 4):

    H(x) = 2 (1 - u + u log u),                              1/4 <= u = 1/x,
    H(x) = 2 (1 - u + u log u - r/2 + u log(a+/a-)),         u < 1/4,

with r = sqrt(1 - 4u) and a+- = (1 +- r)/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import DomainError
from .excursions import peak_length

PI2_3 = math.pi**2 / 3

#: exact excursion-peak integrals: int 1/M dm and int M dm
MIN_PEAK_INTEGRAL = (2 / 3) * (13 - 8 * math.sqrt(2))  # ~ 1.1241943340
MAX_PEAK_INTEGRAL = (2 / 3) * (7 - 4 * math.sqrt(2))   # ~ 0.8954305003

#: Bernoulli numbers B_2, B_4, ..., B_12
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first use: importing scipy costs
    more than most commands, and only the quadrature oracles need it."""
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def _hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{k >= 0} (k + a)^{-s} for real s > 1 and a > 0.

    Terms are added directly until a >= 16 + 2s; from there the
    Euler-Maclaurin tail with six Bernoulli terms is below 1e-15 relative.
    """
    head = []
    while a < 16 + 2 * s:
        head.append(a ** -s)
        a += 1
    tail = a ** (1 - s) / (s - 1) + 0.5 * a ** -s
    term, fact = s * a ** (-s - 1), 2.0  # (s)_{2j-1} a^{-s-2j+1} and (2j)!
    for j, b in enumerate(_BERNOULLI, 1):
        tail += b / fact * term
        term *= (s + 2 * j - 1) * (s + 2 * j) / (a * a)
        fact *= (2 * j + 1) * (2 * j + 2)
    return math.fsum(head) + tail


def _lgamma(z: complex) -> complex:
    """log Gamma(z) for Re z > 0, up to a multiple of 2 pi i.

    The recurrence Gamma(z) = Gamma(z + n) / (z (z+1) ... (z+n-1)) raises |z|
    to 16, where the Stirling series with six Bernoulli terms is exact to
    rounding.
    """
    z, prod = complex(z), 1.0
    while abs(z) < 16:
        prod *= z
        z += 1
    w = 1 / z
    series = sum(b / (2 * j * (2 * j - 1)) * w ** (2 * j - 1)
                 for j, b in enumerate(_BERNOULLI, 1))
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + series - cmath.log(prod)


# -- tiles -------------------------------------------------------------------

def tile_measure(k: int) -> Fraction:
    """m(Omega_k): 1/3 for k = 1, 8/(k(k+1)(k+2)) for k >= 2 (m is twice area)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if k == 1:
        return Fraction(1, 3)
    return Fraction(8, k * (k + 1) * (k + 2))


def tile_partition_defect(k_max: int = 10**6) -> float:
    """|sum_{k <= k_max} m(Omega_k) + tail - 1| with the exact telescoped tail.

    The tail past k_max is 4/((k_max+1)(k_max+2)).
    """
    s = math.fsum(8.0 / (k * (k + 1) * (k + 2)) for k in range(2, k_max + 1))
    tail = 4.0 / ((k_max + 1) * (k_max + 2))
    return abs(1.0 / 3.0 + s + tail - 1.0)


# -- the gap law -------------------------------------------------------------

def roof_cdf(x: float) -> float:
    """Closed-form H(x) = m({R < x}); 0 for x <= 1, kinks at x = 1 and x = 4.

    Rounding is clamped, so every result lies in [0, 1]."""
    if x <= 1:
        return 0.0
    if math.isinf(x):
        return 1.0
    u = 1.0 / x
    base = 1.0 - u + u * math.log(u)
    if u >= 0.25:
        return 2.0 * base
    r = math.sqrt(1.0 - 4.0 * u)
    if r == 1.0:  # H = 1 - 2u^2 + ... has rounded to 1, and 1 - r to 0
        return 1.0
    return min(1.0, 2.0 * (base - 0.5 * r + u * math.log((1.0 + r) / (1.0 - r))))


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

    val, err = _quad(
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

def integrate_over_section(f: Callable, inner_breaks: Callable | None = None) -> tuple:
    """Adaptive nested quadrature of f against m over the triangle.

    inner_breaks(a), when given, lists known kink locations of b -> f(a, b).
    Returns (value, error estimate).
    """
    def inner(a):
        lo = 1.0 - a
        pts = None
        if inner_breaks is not None:
            pts = [p for p in inner_breaks(a) if lo < p < 1.0] or None
        v, _ = _quad(lambda b: f(a, b), lo, 1.0, points=pts,
                     limit=200, epsabs=1e-11, epsrel=1e-12)
        return v

    val, err = _quad(inner, 0.0, 1.0, limit=300, epsabs=1e-11, epsrel=1e-12)
    return 2.0 * val, 2.0 * err


def roof_integral(method: str = "closed-form") -> float:
    """int R dm = pi^2/3 (the volume of the ambient homogeneous space)."""
    if method == "closed-form":
        return PI2_3
    if method != "quadrature":
        raise DomainError(f"unknown method {method!r}")
    val, _ = integrate_over_section(lambda a, b: 1.0 / (a * b))
    return val


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
    g = cmath.exp(_lgamma(s + 1) + _lgamma(t + 1) - _lgamma(s + t + 3))
    val = 2.0 * (1.0 / ((s + 1) * (t + 1)) - g)
    if isinstance(s, complex) or isinstance(t, complex):
        return val
    return val.real


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
        term = sign * (2.0 ** (j + 1) - 1.0) * _hurwitz_zeta(3.0 - alpha + j, head + 1)
        tail += term
        if abs(term) < 1e-18:
            break
        sign = -sign
    return 1.0 / 3.0 + s + 8.0 * tail


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

