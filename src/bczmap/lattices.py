"""Unimodular planar lattices: vertical vectors, section hits, slope gaps.

The slopes of primitive lattice vectors in the vertical strip
{0 < x <= t, y >= 0} are exactly the hit times of the horocycle orbit on the
width-t section, so consecutive slope gaps are roof values along the t-BCZ
orbit.  The BCZ route reads its first hit and that hit's section point off
two consecutive predecessors in one Farey sequence (`farey._farey_predecessor`
and `farey._predecessor`) and steps the orbit from there; the strip
enumerator shares no code with it beyond the integer lattice and is its
independent oracle, and the two must agree.  Every entry point converts its
basis and width once into one exact integer lattice, `_Lattice`, and runs on
integers; only the returned numbers are Fractions (for an exact basis and
width) or floats.  A double is an exact dyadic rational, so a decimal basis
is the lattice its doubles spell, whose orbit can differ from that of the
rational lattice its decimals suggest.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from operator import truediv
from typing import NamedTuple

from .core import DomainError, _int_orbit, _uniform, check_section, is_exact
from .farey import _farey_predecessor, _predecessor

_FLOAT_DET_TOL = 1e-12

#: lattice points and sweep lines the one strip of a brute-force call may
#: visit; a call needing more is a request too large to serve, like a d-grid
#: past `cli.HALL_GRID_MAX`
_STRIP_MAX_POINTS = 50_000_000

_BEYOND_FLOATS = "a slope or gap of this lattice lies beyond the float range"


class UnimodularBasis(namedtuple("UnimodularBasis", "x1 y1 x2 y2")):
    """Columns (x1, y1), (x2, y2) spanning a determinant-1 lattice.

    The entries follow the flavor rule of `core.check_section`: they are
    stored as Fractions when all four are int/Fraction, else all as floats.
    """

    __slots__ = ()

    def __new__(cls, x1, y1, x2, y2):
        entries, exact = _uniform(x1, y1, x2, y2)
        self = super().__new__(cls, *entries)
        d = self.det()
        if exact:
            if d != 1:
                raise DomainError(f"determinant {d} != 1")
        elif not abs(d - 1.0) <= _FLOAT_DET_TOL:  # a nan determinant fails too
            raise DomainError(f"determinant {d!r} not within {_FLOAT_DET_TOL} of 1")
        return self

    @classmethod
    def _make(cls, entries):  # so `_replace` applies the flavor rule and checks too
        return cls(*entries)

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
    correctly rounded division.
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

    def scaled(self, num: int, den: int):
        """num/den times delta: a slope or gap of the lattice the basis spells."""
        return self.ratio(self.delta[0] * num, self.delta[1] * den)


def _gauss_bound(u, v) -> int:
    """Iterations within which `_gauss_reduce` ends on m-bit entries: past
    the first step, |mu| = 1 leaves |v - mu u| >= |u| and the next returns,
    and |mu| >= 2 gives |v|^2 >= |v - mu u|^2 + |mu| (|mu| - 1) |u|^2 >= 2 |u|^2,
    so the shorter squared norm, an integer below 2^(2m + 1), halves."""
    return 2 * max(map(abs, (*u, *v))).bit_length() + 4


def _gauss_reduce(u, v):
    """Lagrange-Gauss reduction of integer columns; returns the reduced pair
    (u, v), which spans the same lattice with the same orientation.  |u|^2,
    |v|^2 and u.v are computed once and updated at each swap and step, so an
    iteration multiplies long entries only by mu."""
    bound = _gauss_bound(u, v)
    nu, nv = u[0] * u[0] + u[1] * u[1], v[0] * v[0] + v[1] * v[1]
    uv = u[0] * v[0] + u[1] * v[1]
    for _ in range(bound):
        if nv < nu:
            u, v, nu, nv, uv = v, (-u[0], -u[1]), nv, nu, -uv
        mu = (2 * uv + nu) // (2 * nu)  # the nearest integer
        if mu == 0:
            return u, v
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        nv -= mu * (2 * uv - mu * nu)
        uv -= mu * nu
    raise RuntimeError(f"Gauss reduction did not finish in {bound} iterations")


def shortest_vector_length(basis: UnimodularBasis):
    """Sup-norm length of the shortest nonzero lattice vector; after Gauss
    reduction the minimizer has coefficients in [-2, 2]^2."""
    lat = _Lattice(basis)
    (x1, y1), (x2, y2) = _gauss_reduce(*lat.cols)
    dn, dd = lat.delta
    # the sup norm of (x, delta y) over the denominator dd D
    norm = min(max(dd * abs(m * x1 + n * x2), dn * abs(m * y1 + n * y2))
               for m in range(-2, 3) for n in range(-2, 3) if m or n)
    return lat.ratio(norm, dd * lat.d)  # at most 1, by Minkowski's theorem


def _vertical(lat: _Lattice) -> int:
    """y of the shortest vertical vector (0, y) of the integer lattice."""
    (x1, y1), (x2, y2) = lat.cols
    g = math.gcd(x1, x2)  # (m, n) = (x2, -x1)/g is the primitive solution of m x1 + n x2 = 0
    return abs(x2 // g * y1 - x1 // g * y2)


def shortest_vertical_length(basis: UnimodularBasis):
    """Length of the shortest nonzero vertical vector.  Rational x-components
    always have one: the doubles (1.0, 0.0), (sqrt(2), 1.0) spell (0, 2^52)."""
    lat = _Lattice(basis)
    try:
        return lat.scaled(_vertical(lat), lat.d)
    except OverflowError:
        raise DomainError("a vertical vector of this lattice is longer than any float") from None


def has_short_vertical(basis: UnimodularBasis, t=1) -> bool:
    """True iff the lattice has a nonzero vertical vector of length <= 1/t,
    decided on integers (the length is delta y/D, and t = w/D): it is then
    horocycle-periodic with period <= 1/t^2 and never (or only degenerately)
    meets the width-t section."""
    lat = _Lattice(basis, t)
    return lat.delta[0] * _vertical(lat) * lat.w <= lat.delta[1] * lat.d**2


# -- strip enumeration --------------------------------------------------------

def _strip_vectors(lat: _Lattice, h: int):
    """Primitive vectors (x, y) of the integer lattice with 0 < x <= lat.w
    and 0 <= y <= h.

    Works in the Gauss-reduced basis alone: a unimodular change of basis
    keeps gcd(m, n), so a vector is primitive iff its reduced coefficients
    are coprime.  The swept coefficient m is the one with the smaller corner
    range (m stays on a tie); n's interval is solved per sweep line by floor
    division.  Sweep lines, empty or not, and points are spent from the
    strip's budget `_STRIP_MAX_POINTS`, and a strip with too many lines is
    refused before its first line.
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
    budget = _spend(_STRIP_MAX_POINTS, len(lines))
    for m in lines:
        # solve 1 <= x1*m + x2*n <= w, then 0 <= y1*m + y2*n <= h, for n
        lo, hi = _interval_solve(x2, x1 * m, 1, w)
        if lo > hi:
            continue
        lo2, hi2 = _interval_solve(y2, y1 * m, 0, h)
        n_lo, n_hi = max(lo, lo2), min(hi, hi2)
        if n_lo <= n_hi:
            budget = _spend(budget, n_hi - n_lo + 1)
            for n in range(n_lo, n_hi + 1):
                if math.gcd(m, n) == 1:
                    yield x1 * m + x2 * n, y1 * m + y2 * n


def _spend(budget: int, count: int) -> int:
    """What is left of a strip's budget after count more lines or points."""
    if count > budget:
        raise DomainError(f"the strip sweep visits more than {_STRIP_MAX_POINTS} lattice"
                          " points and sweep lines; narrow the width or the slope range")
    return budget - count


def _interval_solve(a, c, lo, hi):
    """The integers j with lo <= c + a*j <= hi, as a range (first, last)."""
    if a > 0:
        return -((c - lo) // a), (hi - c) // a
    if a < 0:
        return -((hi - c) // -a), (c - lo) // -a
    return (-(10**18), 10**18) if lo <= c <= hi else (0, -1)


class SlopeGapSeries(NamedTuple):
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
    vectors, and no strip is swept to find it: the hit vector is read off
    the last fraction at or below one rational in one Farey sequence, and the
    section point's b is the x of the next hit vector, read off that
    fraction's own predecessor (`_first_hit`).  Refused for lattices whose
    vertical vectors are strictly shorter than 1/t (those orbits never reach
    the section; the boundary case, e.g. the square lattice at t = 1, does
    meet it at the fixed corner), and for a hit time beyond the float range.
    """
    lat = _Lattice(basis, t)
    x0, y0, b = _first_hit(lat)
    try:
        return lat.scaled(y0, x0), (lat.ratio(x0, lat.d), lat.ratio(b, lat.d))
    except OverflowError:
        raise DomainError(_BEYOND_FLOATS) from None


def _first_hit(lat: _Lattice):
    """(x0, y0, b): the hit vector (x0, y0) of the integer lattice and its
    section point (x0, b), all times D.

    With g = gcd(y1, y2) the lattice is Z(xs, 0) + Z(c, g), xs = D^2/g, so
    its points at height j g sit at x = j c mod xs.  With step = gcd(c, xs)
    and q = xs/step, x = step f for f = j c/step mod q, so j = f i - k q for
    i = (c/step)^-1 mod q, and the least slope g j/(step f) = (g/step)(i - q k/f)
    has k/f the last fraction <= i/q in the Farey sequence F(w // step).  When
    xs <= w, i/q is in F(w // step) itself, and the hit is (xs, 0).
    """
    w, det = lat.w, lat.d * lat.d
    # vertical vectors of length y/D put the lattice on lines D/y apart
    if _vertical(lat) * w < det:
        raise DomainError("lattice is vertically short; orbit misses the section")
    (x1, y1), (x2, y2) = lat.cols
    g, u, v = _ext_gcd(y1, y2)
    xs = det // g
    c = (u * x1 + v * x2) % xs
    step = math.gcd(c, xs)  # <= w, as the shortest vertical g xs/step passed the check
    q, n = xs // step, w // step
    i = pow(c // step, -1, q)
    k, f = _farey_predecessor(i, q, n)
    x0, y0 = step * f, g * (f * i - k * q)
    # the predecessor k'/f' of k/f in F(n) gives the next hit vector: k f' - k' f = 1
    # makes the determinant of (x0, y0) and it g step q = D^2, and f + f' > n
    # puts its x = step f' in (w - x0, w], so that x is the section point's b
    b = step * _predecessor(k, f, n)[1]
    # certificate: the previous hit T^-1(x0, b) = (p, x0) has slope
    # y0/x0 - D^2/(p x0), which is negative iff y0 p < D^2
    if not 0 <= y0 * ((w + b) // x0 * x0 - b) < det:
        raise RuntimeError(f"({x0}, {y0}) is not the first hit at slope >= 0")
    return x0, y0, b


def _ext_gcd(a: int, b: int):
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    u, v, u1, v1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b, u, v, u1, v1 = b, r, u1, v1, u - k * u1, v - k * v1
    return (a, u, v) if a >= 0 else (-a, -u, -v)


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
    try:
        slopes, gaps = [ratio(dn * y0, f)], []
        for x, y, k in islice(_int_orbit(x0, b, lat.w), n):
            gaps.append(ratio(d2, dd * x * y))
            slopes.append(ratio(z1, f * y))
            z0, z1 = z1, k * z1 - z0
    except OverflowError:
        raise DomainError(_BEYOND_FLOATS) from None
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
