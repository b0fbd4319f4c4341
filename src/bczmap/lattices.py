"""Unimodular planar lattices: vertical vectors, section hits, slope gaps.

The slopes of primitive lattice vectors in the vertical strip
{0 < x <= t, y >= 0} are exactly the hit times of the horocycle orbit on the
width-t section, so consecutive slope gaps are roof values along the t-BCZ
orbit.  Both a direct strip enumerator and the BCZ route are provided and
must agree.  Every entry point converts its basis and width once into one
exact integer lattice, `_Lattice`, and runs on integers; only the returned
numbers are Fractions (for an exact basis and width) or floats.  A double is
an exact dyadic rational, so a decimal basis is the lattice its doubles spell,
whose orbit can differ from that of the rational lattice its decimals suggest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import truediv

from .core import DomainError, _int_orbit, _uniform, check_section, is_exact

_FLOAT_DET_TOL = 1e-12

#: iterations `_gauss_reduce` may take; the Fibonacci basis
#: [[F(m + 1), F(m)], [F(m), F(m - 1)]] needs about m/2
_GAUSS_MAX_ITER = 10_000

#: lattice points and sweep lines one call may visit, over all the strips it
#: sweeps; a call needing more is a request too large to serve, like a d-grid
#: past `cli.HALL_GRID_MAX`
_STRIP_MAX_POINTS = 50_000_000


@dataclass(frozen=True)
class UnimodularBasis:
    """Columns (x1, y1), (x2, y2) spanning a determinant-1 lattice.

    The entries follow the flavor rule of `core.check_section`: they are
    stored as Fractions when all four are int/Fraction, else all as floats.
    """

    x1: object
    y1: object
    x2: object
    y2: object

    def __post_init__(self):
        entries, exact = _uniform(self.x1, self.y1, self.x2, self.y2)
        for name, v in zip(("x1", "y1", "x2", "y2"), entries):
            object.__setattr__(self, name, v)
        d = self.det()
        if exact:
            if d != 1:
                raise DomainError(f"determinant {d} != 1")
        elif not abs(d - 1.0) <= _FLOAT_DET_TOL:  # a nan determinant fails too
            raise DomainError(f"determinant {d!r} not within {_FLOAT_DET_TOL} of 1")

    def det(self):
        return self.x1 * self.y2 - self.x2 * self.y1

    def columns(self):
        return (self.x1, self.y1), (self.x2, self.y2)

    @staticmethod
    def identity() -> "UnimodularBasis":
        return UnimodularBasis(1, 0, 0, 1)

    @staticmethod
    def from_section_point(p) -> "UnimodularBasis":
        """The standard basis p_{a,b} = [[a, b], [0, 1/a]] of a section point."""
        a, b, _, _ = check_section(p)
        return UnimodularBasis(a, 0, b, 1 / a)


def shear_basis(slope) -> UnimodularBasis:
    """Columns (1, 0) and (slope, 1): the lattice hit at time 0 with
    section point (1, slope mod 1)."""
    return UnimodularBasis(1, 0, slope, 1)


class _Lattice:
    """The exact integer lattice of a basis at width t, built once per call.

    With delta the exact determinant of the entries, diag(1, 1/delta) keeps x
    and the strip and makes the lattice unimodular; `cols` are its columns
    times the common denominator D of them and t (determinant D^2), and
    `w` = D t.  `ratio` is `Fraction` for an exact basis and width, else
    correctly rounded division; `budget` is what the call may still sweep.
    """

    def __init__(self, basis: UnimodularBasis, t=1):
        if not 0 < t < math.inf:
            raise DomainError(f"width t = {t} must be positive and finite")
        x1, y1, x2, y2, width = map(Fraction, (basis.x1, basis.y1, basis.x2, basis.y2, t))
        delta = x1 * y2 - x2 * y1  # 1 for an exact basis
        y1, y2 = y1 / delta, y2 / delta
        d = math.lcm(*(v.denominator for v in (x1, y1, x2, y2, width)))
        x1, y1, x2, y2, self.w = (v.numerator * (d // v.denominator)
                                  for v in (x1, y1, x2, y2, width))
        self.cols, self.d = ((x1, y1), (x2, y2)), d
        self.delta = delta.numerator, delta.denominator
        self.ratio = Fraction if isinstance(basis.x1, Fraction) and is_exact(t) else truediv
        self.budget = _STRIP_MAX_POINTS

    def scaled(self, num: int, den: int):
        """num/den times delta: a slope or gap of the lattice the basis spells."""
        return self.ratio(self.delta[0] * num, self.delta[1] * den)

    def spend(self, count: int) -> None:
        self.budget -= count
        if self.budget < 0:
            raise DomainError(f"the strip sweep visits more than {_STRIP_MAX_POINTS} lattice"
                              " points and sweep lines; narrow the width or the slope range")


def _gauss_reduce(u, v):
    """Lagrange-Gauss reduction of integer columns; returns the reduced pair
    (u, v), which spans the same lattice with the same orientation."""
    for _ in range(_GAUSS_MAX_ITER):
        nu, nv = u[0] * u[0] + u[1] * u[1], v[0] * v[0] + v[1] * v[1]
        if nv < nu:
            u, v, nu = v, (-u[0], -u[1]), nv
        mu = (2 * (u[0] * v[0] + u[1] * v[1]) + nu) // (2 * nu)  # the nearest integer
        if mu == 0:
            return u, v
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
    raise RuntimeError(f"Gauss reduction did not finish in {_GAUSS_MAX_ITER} iterations")


def shortest_vector_length(basis: UnimodularBasis):
    """Sup-norm length of the shortest nonzero lattice vector; after Gauss
    reduction the minimizer has coefficients in [-2, 2]^2."""
    lat = _Lattice(basis)
    (x1, y1), (x2, y2) = _gauss_reduce(*lat.cols)
    dn, dd = lat.delta
    # the sup norm of (x, delta y) over the denominator dd D
    norm = min(max(dd * abs(m * x1 + n * x2), dn * abs(m * y1 + n * y2))
               for m in range(-2, 3) for n in range(-2, 3) if m or n)
    return lat.ratio(norm, dd * lat.d)


def _vertical(lat: _Lattice) -> int:
    """y of the shortest vertical vector (0, y) of the integer lattice."""
    (x1, y1), (x2, y2) = lat.cols
    g = math.gcd(x1, x2)  # (m, n) = (x2, -x1)/g is the primitive solution of m x1 + n x2 = 0
    return abs(x2 // g * y1 - x1 // g * y2)


def shortest_vertical_length(basis: UnimodularBasis):
    """Length of the shortest nonzero vertical vector.  Rational x-components
    always have one: the doubles (1.0, 0.0), (sqrt(2), 1.0) spell (0, 2^52)."""
    lat = _Lattice(basis)
    return lat.scaled(_vertical(lat), lat.d)


def has_short_vertical(basis: UnimodularBasis, t=1) -> bool:
    """True iff the lattice has a nonzero vertical vector of length <= 1/t:
    it is then horocycle-periodic with period <= 1/t^2 and never (or only
    degenerately) meets the width-t section."""
    return shortest_vertical_length(basis) * t <= 1


# -- strip enumeration --------------------------------------------------------

def _strip_vectors(lat: _Lattice, h: int):
    """Primitive vectors (x, y) of the integer lattice with 0 < x <= lat.w
    and 0 <= y <= h.

    Works in the Gauss-reduced basis alone: a unimodular change of basis
    keeps gcd(m, n), so a vector is primitive iff its reduced coefficients
    are coprime.  The swept coefficient m is the one with the smaller corner
    range (m stays on a tie); n's interval is solved per sweep line by floor
    division.  Sweep lines, empty or not, and points are spent from the
    call's budget, and a strip with too many lines is refused before them.
    """
    (x1, y1), (x2, y2) = _gauss_reduce(*lat.cols)
    det, w = lat.d * lat.d, lat.w
    corners = [(0, 0), (w, 0), (0, h), (w, h)]
    # coefficients of a point (x, y): m = (y2 x - x2 y)/det, n = (x1 y - y1 x)/det
    m_range, n_range = ((-(-min(c) // det), max(c) // det) for c in (
        [y2 * x - x2 * y for x, y in corners], [x1 * y - y1 * x for x, y in corners]))
    if m_range[1] - m_range[0] > n_range[1] - n_range[0]:  # sweep the shorter range
        x1, y1, x2, y2, m_range = x2, y2, x1, y1, n_range
    lines = range(m_range[0], m_range[1] + 1)
    lat.spend(len(lines))
    for m in lines:
        # solve 1 <= x1*m + x2*n <= w, then 0 <= y1*m + y2*n <= h, for n
        lo, hi = _interval_solve(x2, x1 * m, 1, w)
        if lo > hi:
            continue
        lo2, hi2 = _interval_solve(y2, y1 * m, 0, h)
        n_lo, n_hi = max(lo, lo2), min(hi, hi2)
        if n_lo <= n_hi:
            lat.spend(n_hi - n_lo + 1)
            for n in range(n_lo, n_hi + 1):
                if math.gcd(m, n) == 1:
                    yield x1 * m + x2 * n, y1 * m + y2 * n


def _interval_solve(a, c, lo, hi):
    """The integers j with lo <= c + a*j <= hi, as a range (first, last)."""
    if a > 0:
        return -((c - lo) // a), (hi - c) // a
    if a < 0:
        return -((hi - c) // -a), (c - lo) // -a
    return (-(10**18), 10**18) if lo <= c <= hi else (0, -1)


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
    after sorting is an internal-consistency error.  The slopes follow the
    flavor rule of the basis and t; slope_max is compared at its exact value.
    """
    if not (0 < t < math.inf and 0 <= slope_max < math.inf):
        raise DomainError(f"need a finite width t > 0 and slope_max >= 0, not {t}, {slope_max}")
    lat = _Lattice(basis, t)
    bound = Fraction(slope_max) * lat.delta[1] / lat.delta[0]  # on the integer lattice's y/x
    sn, sd, w = bound.numerator, bound.denominator, lat.w
    found = [(x, y) for x, y in _strip_vectors(lat, sn * w // sd) if y * sd <= sn * x]
    # distinct slopes y/x with x <= w differ by at least 1/w^2, so their
    # floors times w^2 differ too: an exact integer sort key
    found.sort(key=lambda v: v[1] * w * w // v[0])
    pairs = list(zip(found, found[1:]))
    if any(y1 * x2 == y2 * x1 for (x1, y1), (x2, y2) in pairs):
        raise RuntimeError("equal slopes for distinct primitive vectors")
    slopes = [lat.scaled(y, x) for x, y in found]
    gaps = [lat.scaled(y2 * x1 - y1 * x2, x1 * x2) for (x1, y1), (x2, y2) in pairs]
    return SlopeGapSeries(t, slopes, gaps)


def first_section_hit(basis: UnimodularBasis, t=1):
    """Smallest s >= 0 with h_s . basis in the width-t section, plus the point.

    The hit time is the minimal nonnegative slope among primitive strip
    vectors; the section point is built by completing the hit vector to a
    unimodular basis and reducing the second coordinate.  Refused for
    lattices whose vertical vectors are strictly shorter than 1/t (those
    orbits never reach the section; the boundary case, e.g. the square
    lattice at t = 1, does meet it at the fixed corner), and for a search
    that would sweep more than `_STRIP_MAX_POINTS` lines and points.
    """
    lat = _Lattice(basis, t)
    x0, y0, b = _first_hit(lat)
    return lat.scaled(y0, x0), (lat.ratio(x0, lat.d), lat.ratio(b, lat.d))


def _first_hit(lat: _Lattice):
    """(x0, y0, b): the hit vector (x0, y0) of the integer lattice and its
    section point (x0, b), all times D."""
    w, det = lat.w, lat.d * lat.d
    # vertical vectors of length y/D put the lattice on lines D/y apart
    if _vertical(lat) * w < det:
        raise DomainError("lattice is vertically short; orbit misses the section")
    h, best = 4 * lat.d, None
    while best is None:
        for x, y in _strip_vectors(lat, h):
            if best is None or y * best[0] < best[1] * x:
                best = (x, y)
        h *= 4
    # completeness pass: anything with a smaller slope has y < slope * w
    x0, y0 = best
    for x, y in _strip_vectors(lat, y0 * w // x0):
        if y * x0 < y0 * x:
            x0, y0 = x, y
    # the hit vector's coefficients in the basis by Cramer's rule
    (x1, y1), (x2, y2) = lat.cols
    m0, r = divmod(y2 * x0 - x2 * y0, det)
    n0, s = divmod(x1 * y0 - y1 * x0, det)
    g, mp, np_ = _ext_gcd(m0, n0)
    if r or s or g != 1:
        raise RuntimeError(f"the strip sweep found ({x0}, {y0}), not a primitive lattice vector")
    # c = -np_ c1 + mp c2 completes the hit vector to a basis; after flowing
    # by the hit time only its x-component matters, reduced into (w - x0, w]
    cx = mp * x2 - np_ * x1
    return x0, y0, cx + (w - cx) // x0 * x0


def _ext_gcd(a: int, b: int):
    """(g, u, v) with u*a + v*b = g."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, u, v = _ext_gcd(b, a % b)
    return (g, v, u - (a // b) * v)


def slope_gaps_via_bcz(basis: UnimodularBasis, t, n: int) -> SlopeGapSeries:
    """First n slope gaps through the width-t BCZ orbit.

    Gaps are the roof values along the integer orbit of the first-hit
    point; slopes are their prefix sums from the hit time.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    lat = _Lattice(basis, t)
    x0, y0, b = _first_hit(lat)
    # x_{i+2} = kappa_i x_{i+1} - x_i telescopes the roofs D^2/(x_i x_{i+1}):
    # the first i sum to D^2 u_i / (x_0 x_i), where u_0 = 0, u_1 = 1 obey the
    # same recurrence.  So slope i, delta (y0/x0 + that sum), is
    # z_i / (dd x_0 x_i) for z_i = dn (y0 x_i + D^2 u_i), which obeys it too.
    (dn, dd), ratio = lat.delta, lat.ratio
    d2, f = dn * lat.d * lat.d, dd * x0
    z0, z1 = dn * y0 * x0, dn * y0 * b + d2
    slopes, gaps = [ratio(dn * y0, f)], []
    for x, y, k in islice(_int_orbit(x0, b, lat.w), n):
        gaps.append(ratio(d2, dd * x * y))
        slopes.append(ratio(z1, f * y))
        z0, z1 = z1, k * z1 - z0
    return SlopeGapSeries(t, slopes, gaps)


def gap_distribution(basis: UnimodularBasis, t, n: int, c: float, d: float) -> float:
    """Fraction of the first n slope gaps lying in (c, d), counted with
    multiplicity: the quantity that converges to m(R^{-1}(t^2 c, t^2 d)) for
    width t."""
    if not 0 <= c <= d:
        raise DomainError("need 0 <= c <= d")
    if n < 1:
        raise DomainError("n must be >= 1")
    gaps = slope_gaps_via_bcz(basis, t, n).gaps
    return sum(1 for g in gaps if c < g < d) / len(gaps)
