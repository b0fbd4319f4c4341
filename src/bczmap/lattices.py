"""Unimodular planar lattices: vertical vectors, section hits, slope gaps.

A basis is a 2x2 determinant-1 matrix whose columns generate the lattice.
The slopes of lattice vectors in the vertical strip {0 < x <= t, y >= 0}
are exactly the hit times of the horocycle orbit on the width-t section,
so consecutive slope gaps are roof values along the t-BCZ orbit.  Both a
direct strip enumerator and the BCZ route are provided and must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import _orbit, is_exact, reduce_to_section


def _slope(x, y):
    return Fraction(y) / Fraction(x) if is_exact(x) else y / x

_FLOAT_DET_TOL = 1e-12


@dataclass(frozen=True)
class UnimodularBasis:
    """Columns (x1, y1), (x2, y2) spanning a determinant-1 lattice."""

    x1: object
    y1: object
    x2: object
    y2: object

    def __post_init__(self):
        d = self.det()
        if self.is_exact():
            if d != 1:
                raise ValueError(f"determinant {d} != 1")
        elif abs(d - 1.0) > _FLOAT_DET_TOL:
            raise ValueError(f"determinant {d!r} not within {_FLOAT_DET_TOL} of 1")

    def det(self):
        return self.x1 * self.y2 - self.x2 * self.y1

    def is_exact(self) -> bool:
        return all(is_exact(v) for v in (self.x1, self.y1, self.x2, self.y2))

    def columns(self):
        return (self.x1, self.y1), (self.x2, self.y2)

    def vector(self, m: int, n: int):
        """Lattice vector m * c1 + n * c2."""
        return (m * self.x1 + n * self.x2, m * self.y1 + n * self.y2)

    @staticmethod
    def identity() -> "UnimodularBasis":
        return UnimodularBasis(1, 0, 0, 1)

    @staticmethod
    def from_section_point(p) -> "UnimodularBasis":
        """The standard basis p_{a,b} = [[a, b], [0, 1/a]] of a section point."""
        a, b = p
        if is_exact(a) and is_exact(b):
            return UnimodularBasis(Fraction(a), Fraction(0), Fraction(b), 1 / Fraction(a))
        return UnimodularBasis(float(a), 0.0, float(b), 1.0 / a)


def exact_basis(x1, y1, x2, y2) -> UnimodularBasis:
    return UnimodularBasis(Fraction(x1), Fraction(y1), Fraction(x2), Fraction(y2))


def shear_basis(slope) -> UnimodularBasis:
    """Columns (1, 0) and (slope, 1): the lattice hit at time 0 with
    section point (1, slope mod 1)."""
    if is_exact(slope):
        return UnimodularBasis(Fraction(1), Fraction(0), Fraction(slope), Fraction(1))
    return UnimodularBasis(1.0, 0.0, float(slope), 1.0)


def _gauss_reduce(basis: UnimodularBasis):
    """Lagrange-Gauss reduction; returns the reduced basis and the unimodular
    coefficient change U with reduced = basis . U (det U = 1)."""
    u = (basis.x1, basis.y1)
    v = (basis.x2, basis.y2)
    cu, cv = (1, 0), (0, 1)  # coefficient columns w.r.t. the original basis

    exact = basis.is_exact()  # one float entry makes the products floats

    def n2(w):
        return w[0] * w[0] + w[1] * w[1]

    for _ in range(10_000):
        if n2(v) < n2(u):
            u, v = v, (-u[0], -u[1])
            cu, cv = cv, (-cu[0], -cu[1])
        mu = round(Fraction(u[0] * v[0] + u[1] * v[1], n2(u))) if exact \
            else round((u[0] * v[0] + u[1] * v[1]) / n2(u))
        if mu == 0:
            break
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        cv = (cv[0] - mu * cu[0], cv[1] - mu * cu[1])
    return (u, v), (cu, cv)


def shortest_vector_length(basis: UnimodularBasis):
    """Sup-norm length of the shortest nonzero lattice vector.

    After Gauss reduction the minimizer has coefficients in [-2, 2]^2.
    """
    (u, v), _ = _gauss_reduce(basis)
    best = None
    for m in range(-2, 3):
        for n in range(-2, 3):
            if m == 0 and n == 0:
                continue
            w = (m * u[0] + n * v[0], m * u[1] + n * v[1])
            ln = max(abs(w[0]), abs(w[1]))
            if best is None or ln < best:
                best = ln
    return best


def shortest_vertical_length(basis: UnimodularBasis):
    """Length of the shortest nonzero vertical vector, or None.

    Exact bases are decided by the rationality of the x-component ratio.
    Float bases only detect an exactly-zero column; otherwise the lattice is
    assumed to have no vertical vectors (caveat documented: float entries
    are approximations, so rationality of their ratio is meaningless).
    """
    c1, c2 = basis.columns()
    if basis.is_exact():
        x1, x2 = Fraction(c1[0]), Fraction(c2[0])
        if x1 == 0:
            return abs(c1[1])
        if x2 == 0:
            return abs(c2[1])
        # primitive solution of m x1 + n x2 = 0: (m, n) = (num, -den) of x2/x1
        ratio = x2 / x1
        m, n = ratio.numerator, -ratio.denominator
        return abs(m * c1[1] + n * c2[1])
    if c1[0] == 0.0:
        return abs(c1[1])
    if c2[0] == 0.0:
        return abs(c2[1])
    return None


def has_short_vertical(basis: UnimodularBasis, t=1) -> bool:
    """True iff the lattice has a nonzero vertical vector of length <= 1/t.

    Such lattices are horocycle-periodic with period <= 1/t^2 and never (or
    only degenerately) meet the width-t section.
    """
    ln = shortest_vertical_length(basis)
    if ln is None:
        return False
    return ln * t <= 1 if is_exact(ln) and is_exact(t) else float(ln) <= 1.0 / float(t)


# -- strip enumeration --------------------------------------------------------

def _coeff_range(vals):
    lo, hi = min(vals), max(vals)
    return math.floor(lo) - 1, math.ceil(hi) + 1


def _strip_vectors(basis: UnimodularBasis, t, y_max, max_iter: int = 50_000_000):
    """Primitive lattice vectors with 0 < x <= t and 0 <= y <= y_max.

    Gauss-reduces first, then sweeps the coefficient whose corner range is
    smaller, solving the other coefficient's interval exactly per sweep line.
    Yields (x, y, m, n) with gcd(m, n) = 1.
    """
    (u, v), (cu, cv) = _gauss_reduce(basis)
    x1, y1 = u
    x2, y2 = v
    det = x1 * y2 - x2 * y1  # reduction preserves det; 1 exactly, or ~1 float
    corners = [(0, 0), (t, 0), (0, y_max), (t, y_max)]
    # coefficients of a point (x, y): m = (y2 x - x2 y)/det, n = (x1 y - y1 x)/det
    ms = [(y2 * x - x2 * y) / det for x, y in corners]
    ns = [(x1 * y - y1 * x) / det for x, y in corners]
    m_lo, m_hi = _coeff_range(ms)
    n_lo, n_hi = _coeff_range(ns)
    sweep_m = (m_hi - m_lo) <= (n_hi - n_lo)
    if sweep_m:
        outer = (m_lo, m_hi)
        a1, b1 = x2, x1  # x = b1*i + a1*j for outer index i, inner j
        a2, b2 = y2, y1
    else:
        outer = (n_lo, n_hi)
        a1, b1 = x1, x2
        a2, b2 = y1, y2

    count = 0
    for i in range(outer[0], outer[1] + 1):
        # solve 0 < b1*i + a1*j <= t and 0 <= b2*i + a2*j <= y_max for j
        lo, hi = _interval_solve(a1, b1 * i, t, strict_lo=True)
        lo2, hi2 = _interval_solve(a2, b2 * i, y_max, strict_lo=False)
        jlo, jhi = max(lo, lo2), min(hi, hi2)
        if jlo > jhi:
            continue
        count += jhi - jlo + 1
        if count > max_iter:
            raise RuntimeError("strip enumeration radius overflow")
        for j in range(jlo, jhi + 1):
            if sweep_m:
                m, n = i, j
            else:
                m, n = j, i
            x = x1 * m + x2 * n
            y = y1 * m + y2 * n
            # translate back to original-basis coefficients for the gcd test
            om = cu[0] * m + cv[0] * n
            on = cu[1] * m + cv[1] * n
            if math.gcd(om, on) != 1:
                continue
            yield x, y, om, on


def _interval_solve(a, c, upper, strict_lo: bool):
    """Integer j with  lower < c + a*j <= upper  (lower = 0), or with the
    non-strict variant 0 <= c + a*j <= upper."""
    if a == 0:
        ok = (0 < c <= upper) if strict_lo else (0 <= c <= upper)
        return (0, -1) if not ok else (-(10**18), 10**18)
    if a > 0:
        lo = _int_above((0 - c) / a, strict=strict_lo)
        hi = _int_below((upper - c) / a, strict=False)
    else:
        lo = _int_above((upper - c) / a, strict=False)
        hi = _int_below((0 - c) / a, strict=strict_lo)
    return lo, hi


def _int_above(x, strict: bool):
    n = math.ceil(x)
    if strict and n == x:
        n += 1
    return n


def _int_below(x, strict: bool):
    n = math.floor(x)
    if strict and n == x:
        n -= 1
    return n


@dataclass
class SlopeGapSeries:
    """Increasing slopes of strip vectors and their consecutive gaps."""

    width: object
    slopes: list
    gaps: list


def strip_slopes_bruteforce(basis: UnimodularBasis, t, slope_max) -> SlopeGapSeries:
    """Slopes (<= slope_max) of primitive vectors in the strip, by enumeration.

    Distinct primitive vectors in the strip always have distinct slopes
    (shared slope means proportional vectors); a violation of strictness
    after sorting is an internal-consistency error.
    """
    found = []
    for x, y, _, _ in _strip_vectors(basis, t, slope_max * t):
        if y > slope_max * x:
            continue
        found.append(_slope(x, y))
    found.sort()
    for s1, s2 in zip(found, found[1:]):
        if s1 == s2:
            raise RuntimeError("equal slopes for distinct primitive vectors")
    gaps = [b - a for a, b in zip(found, found[1:])]
    return SlopeGapSeries(t, found, gaps)


def first_section_hit(basis: UnimodularBasis, t=1):
    """Smallest s >= 0 with h_s . basis in the width-t section, plus the point.

    The hit time is the minimal nonnegative slope among primitive strip
    vectors; the section point is built by completing the hit vector to a
    unimodular basis and reducing the second coordinate.  Refused for
    lattices whose vertical vectors are strictly shorter than 1/t (those
    orbits never reach the section; the boundary case, e.g. the square
    lattice at t = 1, does meet it at the fixed corner).
    """
    ln = shortest_vertical_length(basis)
    if ln is not None:
        strictly_short = (ln * t < 1) if (is_exact(ln) and is_exact(t)) \
            else float(ln) * float(t) < 1.0 - 1e-12
        if strictly_short:
            raise ValueError("lattice is vertically short; orbit misses the section")
    y_max = 4
    best = None
    while best is None:
        for x, y, m, n in _strip_vectors(basis, t, y_max):
            slope = _slope(x, y)
            if best is None or slope < best[0]:
                best = (slope, x, y, m, n)
        y_max *= 4
        if y_max > 4**26:
            raise RuntimeError("no strip vector found; is the basis unimodular?")
    # completeness pass: anything with a smaller slope has y < slope * t
    if best[0] > 0:
        for x, y, m, n in _strip_vectors(basis, t, best[0] * t):
            slope = _slope(x, y)
            if slope < best[0]:
                best = (slope, x, y, m, n)
    s1, x0, _, m0, n0 = best
    # extend (m0, n0) to a determinant-1 integer coefficient matrix; the hit
    # vector and w then form a basis, and after flowing by s1 only the
    # x-component of w matters (det 1 forces the y-component to 1/x0)
    g, mp, np_ = _ext_gcd(m0, n0)
    assert g == 1
    w = basis.vector(-np_, mp)
    (a, b), _ = reduce_to_section(x0, w[0], width=t)
    return s1, (a, b)


def _ext_gcd(a: int, b: int):
    """(g, u, v) with u*a + v*b = g."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, u, v = _ext_gcd(b, a % b)
    return (g, v, u - (a // b) * v)


def slope_gaps_via_bcz(basis: UnimodularBasis, t, n: int) -> SlopeGapSeries:
    """First n slope gaps through the width-t BCZ orbit.

    Gaps are the roof values along the orbit of the first-hit point; slopes
    are their prefix sums from the hit time.  Exact bases with an exact
    width run on the integer orbit; anything else runs the drift-monitored
    float map.
    """
    s1, p = first_section_hit(basis, t)
    d, orbit = _orbit(p, t)
    slopes, gaps = [s1], []
    steps = zip(range(n), orbit)
    if not isinstance(d, int):
        s = s1
        for _, (x, y, _) in steps:
            g = 1.0 / (x * y)
            s = s + g
            gaps.append(g)
            slopes.append(s)
        return SlopeGapSeries(t, slopes, gaps)
    # The first coordinates obey x_{i+2} = kappa_i x_{i+1} - x_i, so the
    # roofs telescope: the first i of them sum to d^2 u_i / (x_0 x_i), with
    # u_0 = 0, u_1 = 1 and u_{i+2} = kappa_i u_{i+1} - u_i.
    d2 = d * d
    x0 = int(p[0] * d)
    e, f = s1.numerator, s1.denominator
    u0, u1 = 0, 1
    for _, (x, y, k) in steps:
        gaps.append(Fraction(d2, x * y))
        # s1 + d^2 u_{i+1} / (x_0 x_{i+1}) over one denominator, y = x_{i+1}
        slopes.append(Fraction(e * x0 * y + f * d2 * u1, f * x0 * y))
        u0, u1 = u1, k * u1 - u0
    return SlopeGapSeries(t, slopes, gaps)


def gap_distribution(basis: UnimodularBasis, t, n: int, c: float, d: float,
                     distinct: bool = False) -> float:
    """Fraction of the first n slope gaps lying in (c, d).

    Counted with multiplicity by default (this is the quantity that converges
    to m(R^{-1}(t^2 c, t^2 d)) for width t).  With distinct=True the gaps are
    deduplicated as a set of values first, which only differs materially on
    periodic orbits.
    """
    if not 0 <= c <= d:
        raise ValueError("need 0 <= c <= d")
    vals = slope_gaps_via_bcz(basis, t, n).gaps
    if distinct:
        vals = {g if is_exact(g) else round(g, 12) for g in vals}
    return sum(1 for g in vals if c < g < d) / len(vals)
