"""Farey-triangle section and the BCZ first-return map.

The section is the half-open triangle

    Omega = {(a, b) : a, b in (0, 1], a + b > 1},

identified with unimodular lattices containing a horizontal vector of
length <= 1.  The first-return map of the horocycle flow to Omega is the
BCZ map

    T(a, b) = (b, -a + floor((1+a)/b) * b),

with return time R(a, b) = 1/(ab).  Everything here supports two scalar
flavors: exact (int/Fraction, used wherever correctness is at stake) and
float (long ergodic runs, drift-monitored).  Mixing the two in one point
is rejected.

Orbits run on one kernel, `_orbit`.  By the scaling conjugacy
T_t o M_t = M_t o T an exact orbit is an integer orbit: with the common
denominator D of the point and the width t cleared, it is the map
(x, y) -> (y, floor((tD + x)/y) y - x).  Fractions appear only at the API
boundary, built for the values a function returns.  The one-step
functions t_bcz_step, t_kappa and t_roof keep Fraction arithmetic and are
the reference the kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, float]
Point = tuple  # (a, b) pair of uniform scalar flavor

#: absolute tolerance for float membership / drift detection
DRIFT_TOL = 1e-9


class DomainError(ValueError):
    """Point outside the section (or scalar flavors mixed)."""


class DriftError(ArithmeticError):
    """Float orbit left the section by more than the drift tolerance."""


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def point_flavor(a: Scalar, b: Scalar) -> str:
    """'exact' or 'float'; raises on a Fraction/float mix."""
    ea, eb = is_exact(a), is_exact(b)
    if ea and eb:
        return "exact"
    if isinstance(a, float) and isinstance(b, float):
        return "float"
    # int + float is ordinary promotion; Fraction + float is silent precision
    # loss and is refused.
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        raise DomainError(f"mixed exact/float point ({a!r}, {b!r})")
    return "float"


def in_section(p: Point, width: Scalar = 1) -> bool:
    """Exact membership test for Omega_t (t = width, default the unit section)."""
    a, b = p
    return 0 < a <= width and 0 < b <= width and a + b > width


def check_section(p: Point, width: Scalar = 1) -> str:
    """Validate membership and return the scalar flavor.

    Float points are accepted within DRIFT_TOL of the section.
    """
    a, b = p
    flavor = point_flavor(a, b)
    if flavor == "exact":
        if not in_section(p, width):
            raise DomainError(f"({a}, {b}) not in the width-{width} section")
    else:
        w = float(width)
        tol = DRIFT_TOL * max(1.0, w)
        if not (0 < a <= w + tol and 0 < b <= w + tol and a + b > w - tol):
            raise DomainError(f"({a}, {b}) not in the width-{w:g} section")
    return flavor


@dataclass(frozen=True)
class IntMatrix2:
    """2x2 integer matrix of determinant 1, row-major."""

    a11: int
    a12: int
    a21: int
    a22: int

    def __post_init__(self):
        if self.det() != 1:
            raise ValueError(f"determinant {self.det()} != 1")

    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> int:
        return self.a11 + self.a22

    def __matmul__(self, o: "IntMatrix2") -> "IntMatrix2":
        (a11, a12), (a21, a22) = _mat2_mul(self.rows(), o.rows())
        return IntMatrix2(a11, a12, a21, a22)

    def transpose(self) -> "IntMatrix2":
        return IntMatrix2(self.a11, self.a21, self.a12, self.a22)

    def act_on_point(self, p: Point) -> Point:
        """Row vector action p . M^T."""
        a, b = p
        return (a * self.a11 + b * self.a12, a * self.a21 + b * self.a22)

    def rows(self):
        return ((self.a11, self.a12), (self.a21, self.a22))


def tile_matrix(k: int) -> IntMatrix2:
    """A_k = [[0, 1], [-1, k]]; T acts by p -> p . A_k^T on the tile kappa = k."""
    return IntMatrix2(0, 1, -1, k)


def kappa(p: Point) -> int:
    """Index kappa(a, b) = floor((1+a)/b); equals k exactly on the tile Omega_k.

    On the boundary b = 1 this gives 1 for a < 1 and 2 at (1, 1).  This is
    t_kappa at width 1.
    """
    return t_kappa(p, 1)


def roof(p: Point) -> Scalar:
    """First-return time R(a, b) = 1/(ab); >= 1 on the section, = 1 only at (1, 1)."""
    return t_roof(p, 1)


def bcz_step(p: Point) -> Point:
    """One application of the BCZ map: t_bcz_step at width 1.

    Exact flavor is closed on Omega by construction.  Float results are
    re-projected into Omega when within DRIFT_TOL; larger violations raise
    DriftError (piecewise-linear drift is additive, so this is a real bug
    or genuine numerical decay, never expected behaviour).
    """
    return t_bcz_step(p, 1)


def _reproject(a: float, b: float, width: float = 1.0) -> float:
    """Clamp the second coordinate into (width - a, width]; raise DriftError
    past the tolerance DRIFT_TOL * max(1, width)."""
    tol = DRIFT_TOL * max(1.0, width)
    if b > width:
        if b > width + tol:
            raise DriftError(f"float orbit drifted above the width-{width:g} section: b = {b!r}")
        b = width
    if b <= width - a:
        if (width - a) - b > tol:
            raise DriftError(f"float orbit drifted below the width-{width:g} section: b = {b!r}")
        b = math.nextafter(width - a, math.inf)
    return b


def _orbit(p: Point, t: Scalar = 1):
    """The orbit kernel: check p once and return (d, orbit).

    `orbit` yields (x, y, kappa) without end: (x/d, y/d) runs through the
    width-t orbit of p, and kappa is the index floor((t + x/d)/(y/d)) of
    each visit.  An exact point with an exact width runs on integers, d
    being the common denominator of p and t.  Anything else runs in floats
    with d = 1.0 and is re-projected into the section after every step.
    """
    if check_section(p, width=t) == "exact" and is_exact(t):
        fs = [Fraction(v) for v in (*p, t)]
        d = math.lcm(*(f.denominator for f in fs))
        x, y, w = (f.numerator * (d // f.denominator) for f in fs)
        return d, _int_orbit(x, y, w)
    return 1.0, _float_orbit(float(p[0]), float(p[1]), float(t))


def _int_orbit(x: int, y: int, w: int):
    while True:
        k = (w + x) // y
        yield x, y, k
        x, y = y, k * y - x


def _float_orbit(x: float, y: float, w: float):
    while True:
        k = math.floor((w + x) / y)
        yield x, y, k
        x, y = y, k * y - x
        if not w - x < y <= w:
            y = _reproject(x, y, w)


def step_matrix(p: Point) -> IntMatrix2:
    """A_{kappa(p)}; satisfies bcz_step(p) = p . A^T, det 1, trace kappa(p)."""
    return tile_matrix(kappa(p))


def cocycle(p: Point, n: int) -> IntMatrix2:
    """Ordered product A(T^{n-1} p) ... A(T p) A(p); T^n(p) = p . (result)^T."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m11, m12, m21, m22 = 1, 0, 0, 1
    for _, (_, _, k) in zip(range(n), _orbit(p)[1]):
        # A_k @ m with A_k = [[0, 1], [-1, k]]
        m11, m12, m21, m22 = m21, m22, k * m21 - m11, k * m22 - m12
    return IntMatrix2(m11, m12, m21, m22)


@dataclass
class OrbitTrace:
    """Orbit history: points[i] = T^i(start), returns[i] = R, indices[i] = kappa."""

    points: list
    returns: list
    indices: list


def orbit_trace(p: Point, n: int) -> OrbitTrace:
    d, orbit = _orbit(p)
    exact = isinstance(d, int)
    d2 = d * d
    points, returns, indices = [], [], []
    a = p[0]
    for _, (x, y, k) in zip(range(n), orbit):
        # T(a, b) = (b, .): consecutive points share one coordinate object
        b = Fraction(y, d) if exact else y
        points.append((a, b))
        returns.append(Fraction(d2, x * y) if exact else 1.0 / (x * y))
        indices.append(k)
        a = b
    return OrbitTrace(points, returns, indices)


def reduce_to_section(a: Scalar, b_raw: Scalar, width: Scalar = 1):
    """Normalize a horizontally-short basis into the section.

    Returns ((a, b), shift) where b = shift*a + b_raw is the unique
    representative with width - a < b <= width; shift = floor((width - b_raw)/a).
    The post-condition is verified explicitly (and repaired for float
    rounding at the interval edges).
    """
    if not 0 < a <= width:
        raise DomainError(f"horizontal length {a} outside (0, {width}]")
    if is_exact(a) and is_exact(b_raw):
        shift = ((Fraction(width) - b_raw) / a).__floor__()
    else:
        a, b_raw, width = float(a), float(b_raw), float(width)
        shift = math.floor((width - b_raw) / a)
    b = shift * a + b_raw
    # float rounding can land one step off; re-center, but never loop on
    # inputs whose magnitude ratio makes the division meaningless
    repairs = 0
    while b > width:
        shift -= 1
        b = shift * a + b_raw
        repairs += 1
        if repairs > 64:
            raise DomainError(f"cannot reduce b_raw={b_raw!r} at a={a!r}: magnitudes too disparate")
    while b <= width - a:
        shift += 1
        b = shift * a + b_raw
        repairs += 1
        if repairs > 64:
            raise DomainError(f"cannot reduce b_raw={b_raw!r} at a={a!r}: magnitudes too disparate")
    return (a, b), shift


def verify_return_identity(p: Point) -> bool:
    """Exact check of the return identity h_{R(p)} . p_{a,b} . A(p)^T = p_{T(p)}.

    Here p_{a,b} = [[a, b], [0, 1/a]] and h_s = [[1, 0], [-s, 1]].  Note the
    multiplying matrix is the transpose of the tile matrix A_{kappa(p)} =
    [[0, 1], [-1, kappa]].
    """
    if check_section(p) != "exact":
        raise DomainError("verify_return_identity requires the exact flavor")
    a, b = Fraction(p[0]), Fraction(p[1])
    r = 1 / (a * b)
    h = ((1, 0), (-r, 1))
    pa = ((a, b), (0, 1 / a))
    w = step_matrix(p).transpose().rows()
    left = _mat2_mul(_mat2_mul(h, pa), w)
    ta, tb = bcz_step(p)
    right = ((Fraction(ta), Fraction(tb)), (0, 1 / Fraction(ta)))
    return left == right


def _mat2_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


# -- scaled sections -------------------------------------------------------

def scale_point(p: Point, t: Scalar) -> Point:
    """M_t(a, b) = (ta, tb), carrying Omega onto the width-t section."""
    a, b = p
    return (t * a, t * b)


def t_kappa(p: Point, t: Scalar) -> int:
    check_section(p, width=t)
    x, y = p
    if is_exact(x) and is_exact(t):
        return ((Fraction(t) + x) / Fraction(y)).__floor__()
    return math.floor((float(t) + x) / y)


def t_roof(p: Point, t: Scalar) -> Scalar:
    """Return time on the width-t section: 1/(xy), bounded below by 1/t^2."""
    check_section(p, width=t)
    x, y = p
    if is_exact(x):
        return Fraction(1, 1) / (Fraction(x) * Fraction(y))
    return 1.0 / (x * y)


def t_bcz_step(p: Point, t: Scalar) -> Point:
    """The width-t return map T_t(x, y) = (y, -x + floor((t+x)/y) * y).

    Satisfies the scaling conjugacy T_t o M_t = M_t o T exactly.
    """
    flavor = check_section(p, width=t)
    x, y = p
    if flavor == "exact" and is_exact(t):
        k = ((Fraction(t) + x) / Fraction(y)).__floor__()
        return (y, k * y - x)
    x, y, tf = float(x), float(y), float(t)
    k = math.floor((tf + x) / y)
    return (y, _reproject(y, k * y - x, tf))


def narrow_embed(p: Point, t: Scalar) -> Point:
    """Identify a unit-section point with a <= t with its width-t coordinates.

    Same lattice, second coordinate reduced mod a into (t - a, t].  This is
    the map carrying the first-return dynamics on the strip {a <= t} onto
    the width-t return map.
    """
    a, b = p
    check_section(p)
    if not a <= t:
        raise DomainError(f"first coordinate {a} exceeds the strip width {t}")
    return reduce_to_section(a, b, width=t)[0]


def narrow_first_return(p: Point, t: Scalar, max_steps: int = 10**7) -> Point:
    """First return of the BCZ map to the strip {(a, b) in Omega : a <= t}.

    Satisfies t_bcz_step(narrow_embed(p)) = narrow_embed(narrow_first_return(p)):
    strip visits of the unit orbit are exactly the width-t section visits.
    """
    d, orbit = _orbit(p)
    if not p[0] <= t:
        raise DomainError(f"first coordinate {p[0]} exceeds the strip width {t}")
    exact = isinstance(d, int)
    limit = math.floor(t * d) if exact else t
    next(orbit)
    for _, (x, y, _) in zip(range(max_steps), orbit):
        if x <= limit:
            return (Fraction(x, d), Fraction(y, d)) if exact else (x, y)
    raise RuntimeError("no return to the strip within max_steps")


def to_upper_half_plane(p: Point):
    """Coordinates of the lattice in the standard cuspidal strip.

    Returns (x, y) with y = 1/a^2 >= 1 and x = b/a reduced mod 1 into
    (-1/2, 1/2].
    """
    check_section(p)
    a, b = p
    if is_exact(a):
        a, b = Fraction(a), Fraction(b)
        x = b / a
        n = (x - Fraction(1, 2)).__ceil__()
        return (x - n, 1 / (a * a))
    x = b / a
    n = math.ceil(x - 0.5)
    return (x - n, 1.0 / (a * a))
