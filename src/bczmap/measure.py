"""The invariant measure m = 2 da db on the Farey triangle.

Closed forms live next to a pure-Python Gauss-Kronrod quadrature oracle,
so every constant is checked by two independent routes.  The central
object is the mass

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
import heapq
import math
from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple

from .core import DomainError
from .excursions import peak_length

PI2_3 = math.pi**2 / 3

#: exact excursion-peak integrals: int 1/M dm and int M dm
MIN_PEAK_INTEGRAL = (2 / 3) * (13 - 8 * math.sqrt(2))  # ~ 1.1241943340
MAX_PEAK_INTEGRAL = (2 / 3) * (7 - 4 * math.sqrt(2))   # ~ 0.8954305003

#: Bernoulli numbers B_2, B_4, ..., B_12
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


#: QUADPACK's 21-point Kronrod nodes on [-1, 1] and weights (the positive
#: half, the centre last), and the 10-point Gauss weights of the odd nodes
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
        0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
        0.2943928627014602, 0.14887433898163122, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
        0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
        0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
#: all 21 nodes from -1 to 1, their Kronrod weights, the Gauss weights of nodes 1, 3, ..., 19
_NODES = tuple(-x for x in _XGK) + _XGK[-2::-1]
_WK21 = _WGK + _WGK[-2::-1]
_WG10 = _WG + _WG[::-1]


def _x(p, q, u):
    """The point p + (q - p) s(u) of [p, q] (in either order), s(u) = u^3 (10 - 15u + 6u^2)."""
    return p + (q - p) * (u * u * u * (10 - 15 * u + 6 * u * u))


def _gk21(f, p, q, u0, u1):
    """QUADPACK's 21-point value and error of f over the part of [p, q] that
    _x(p, q, u) maps [u0, u1] onto.  The sums are math.fsum, correctly rounded,
    so the digits do not depend on the Python version (sum() changed in 3.12)."""
    us = [(u0 + u1) / 2 + (u1 - u0) / 2 * t for t in _NODES]
    fs = [f(_x(p, q, u)) * (u * (1 - u)) ** 2 for u in us]
    h = (u1 - u0) / 2 * 30 * abs(q - p)  # s'(u) = 30 u^2 (1 - u)^2
    resk = math.fsum(map(mul, _WK21, fs))
    err = abs((resk - math.fsum(map(mul, _WG10, fs[1::2]))) * h)
    resabs = h * math.fsum(map(mul, _WK21, map(abs, fs)))
    resasc = h * math.fsum(map(mul, _WK21, [abs(v - resk / 2) for v in fs]))
    if resasc and err:
        err = resasc * min(1.0, (200 * err / resasc) ** 1.5)
    return resk * h, max(50 * math.ulp(1.0) * resabs, err)


def _quad(f, a, b, points=None, limit=50, epsabs=1.49e-8, epsrel=1.49e-8):
    """Integral of f over [a, b], a <= b, and its error estimate, globally adaptive.

    Each piece [lo, hi] between the points is integrated in u through
    x = _x(lo, hi, u), whose Jacobian 30 u^2 (1 - u)^2 flattens singularities
    at both ends; a right half is measured from hi, so x keeps its precision.
    The worst subinterval is bisected until the errors add up to max(epsabs,
    epsrel |value|), or ArithmeticError once `limit` subintervals have not,
    or once halving it would round a node onto the end of its piece.
    """
    cuts = [a, *sorted(x for x in points or () if a < x < b), b]
    heap = sorted((-e, v, lo, hi, 0.0, 1.0)  # a sorted list is a heap
                  for lo, hi in zip(cuts, cuts[1:]) for v, e in [_gk21(f, lo, hi, 0.0, 1.0)])
    while True:
        total, error = math.fsum(e[1] for e in heap), -math.fsum(e[0] for e in heap)
        if error <= max(epsabs, epsrel * abs(total)):
            return total, error
        neg, val, p, q, u0, u1 = heap[0]
        um = (u0 + u1) / 2
        u = (u0 + um) / 2 + (um - u0) / 2 * _NODES[0]  # the node nearest p after halving
        if len(heap) >= limit or not (math.isfinite(error) and u0 < um < u1 and _x(p, q, u) != p):
            raise ArithmeticError(
                f"quadrature over [{a}, {b}] reached error {error:.3g} with {len(heap)} "
                f"subintervals; the worst, {-neg:.3g}, lies in the piece between {p} and {q}")
        heapq.heappop(heap)
        for part in [(p, q, u0, um), (q, p, u0, um) if u1 == 1.0 else (p, q, um, u1)]:
            v, e = _gk21(f, *part)
            heapq.heappush(heap, (-e, v, *part))


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
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + _stirling_series(z) \
        - cmath.log(prod)


def _stirling_series(z):
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), exact to rounding for |z| >= 16."""
    w = 1 / z
    return sum(b / (2 * j * (2 * j - 1)) * w ** (2 * j - 1) for j, b in enumerate(_BERNOULLI, 1))


def _log_beta(x: float, y: float) -> float:
    """log B(x, y) = lgamma(x) + lgamma(y) - lgamma(x + y) for max(x, y) >= 16.

    The difference cancels: at x = 1e17 it has no correct digit, and lgamma
    overflows from 2.6e305.  With a <= b the arguments, Stirling's series
    gives lgamma(b) - lgamma(a + b), and lgamma(a) too when a >= 16, with
    log(a + b) = log b + log1p(a/b), so nothing cancels or overflows (the
    betaln of ACM TOMS 708).
    """
    a, b = sorted((x, y))
    h = a / b
    tail = _stirling_series(b) - _stirling_series(a + b)
    if a < 16:
        return math.lgamma(a) + tail + a - a * math.log(b) - (a + b - 0.5) * math.log1p(h)
    return tail + _stirling_series(a) + 0.5 * math.log(2 * math.pi / b) \
        + (a - 0.5) * math.log(h / (1 + h)) - b * math.log1p(h)


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

    The tail past k_max is 4/((k_max+1)(k_max+2)); k_max >= 1, as the sum
    starts after the k = 1 tile.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, not {k_max}")
    s = math.fsum(8.0 / (k * (k + 1) * (k + 2)) for k in range(2, k_max + 1))
    tail = 4.0 / ((k_max + 1) * (k_max + 2))
    return abs(1.0 / 3.0 + s + tail - 1.0)


# -- the gap law -------------------------------------------------------------

def roof_cdf(x: float) -> float:
    """Closed-form H(x) = m({R < x}); 0 for x <= 1, kinks at x = 1 and x = 4.

    Rounding is clamped, so every result lies in [0, 1]; nan is refused."""
    if math.isnan(x):
        raise DomainError("the roof distribution is undefined at nan")
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


class RegionMeasureResult(NamedTuple):
    value: float
    method: str           # "closed-form" | "quadrature"
    estimated_error: float


def _band_breakpoints(u1: float, u2: float) -> list:
    """a-values where the slice of {u1 < ab < u2} over Omega changes shape."""
    pts = set()
    for u in (u1, u2):
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
        pts = inner_breaks(a) if inner_breaks is not None else None
        v, _ = _quad(lambda b: f(a, b), 1.0 - a, 1.0, points=pts,
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
    theory assigns: B_{-1,0} = B_{0,-1} = 2 and B_{-1,-1} = pi^2/3.  Real
    exponents from 15 up take the Gamma ratio through `_log_beta`, whose
    relative error stays near rounding up to the largest float.
    """
    special = {(-1, 0): 2.0, (0, -1): 2.0, (-1, -1): PI2_3}
    key = (s, t)
    if key in special:
        return special[key]
    sr = s.real if isinstance(s, complex) else float(s)
    tr = t.real if isinstance(t, complex) else float(t)
    if not (-1 < sr < math.inf and -1 < tr < math.inf):
        raise DomainError(f"B_{{{s},{t}}} undefined: exponents must be finite and exceed -1")
    if isinstance(s + t, complex):
        g = cmath.exp(_lgamma(s + 1) + _lgamma(t + 1) - _lgamma(s + t + 3))
    elif max(sr, tr) < 15:
        g = math.exp(math.lgamma(s + 1) + math.lgamma(t + 1) - math.lgamma(s + t + 3))
    else:  # G(s+1)G(t+1)/G(s+t+3) = B(s+1, t+1)/(s+t+2)
        g = math.exp(_log_beta(s + 1, t + 1)) / (s + t + 2)
    return 2.0 * (1.0 / ((s + 1) * (t + 1)) - g)


def kappa_moment(alpha: float, head: int = 1000) -> float:
    """int kappa^alpha dm = sum_k k^alpha m(Omega_k), alpha in (0, 2).

    Head terms are summed directly; the tail uses the expansion
    8 k^{alpha-3} / ((1+1/k)(1+2/k)) = 8 sum_j (-1)^j (2^{j+1}-1) k^{alpha-3-j}
    whose pieces are Hurwitz zeta values, giving ~1e-15 truncation error.
    The series in 2/k diverges for k <= 2 and needs more than the loop's 60
    terms at k = 3, so the tail starts at k = head + 1 >= 4.
    """
    if not 0 < alpha < 2:
        raise DomainError("alpha must lie in (0, 2); the moment diverges at 2")
    if head < 3:
        raise DomainError(f"head must be >= 3, not {head}: the tail series needs k >= 4")
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

