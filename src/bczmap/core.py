"""Farey-triangle section and the BCZ first-return map.

The section is the half-open triangle

    Omega = {(a, b) : a, b in (0, 1], a + b > 1},

identified with unimodular lattices containing a horizontal vector of
length <= 1.  The first-return map of the horocycle flow to Omega is the
BCZ map

    T(a, b) = (b, -a + floor((1+a)/b) * b),

with return time R(a, b) = 1/(ab).  Everything here supports two scalar
flavors: exact (int/Fraction, used wherever correctness is at stake) and
float (decimal orbit traces, drift-monitored), decided once per input by one
rule: a point or basis is exact only when every entry (and the width) is
int/Fraction, and then every result is a Fraction; one decimal entry makes
the results floats.  After `check_section` one expression runs both
flavors, since Fraction and float share /, floor, ceil and round.

By the scaling conjugacy T_t o M_t = M_t o T an exact orbit is an integer
orbit: with the common denominator D of the point and the width t cleared,
it is the map (x, y) -> (y, floor((tD + x)/y) y - x).  Exact and dyadic
values are spelled as integers over D once, by `_spell`: in `_orbit` and
`reduce_to_section` here, for the lattice of a basis in `lattices`, and for
the orbit a decimal start spells in `excursions.excursion_averages`.  Every
integer orbit, on Python integers or in numpy lanes (`farey`, `excursions`),
then runs the one kernel `_int_orbit`, lanes in the integer type `_itemsize`
gives.  Fractions and floats appear only at the API boundary, built for
the values a function returns.  `orbit_trace` and `excursion_trace` pass
their step count n to `_orbit`, which builds each distinct value once per
call when n > tD: the integer coordinates lie in (0, tD], so they must
repeat.  The same conjugacy makes the unit section the width-1 case of the
width-t one, so every section function takes its width t = 1 by default;
the one-step functions bcz_step, kappa and roof keep Fraction arithmetic and
are the reference the kernel is tested against.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from operator import truediv
from typing import NamedTuple, Union

Scalar = Union[int, Fraction, float]
Point = tuple  # an (a, b) pair

#: absolute tolerance for float membership / drift detection
DRIFT_TOL = 1e-9


class DomainError(ValueError):
    """Bad input: an argument outside its function's domain, such as a point off the section."""


class DriftError(ArithmeticError):
    """Float orbit left the section by more than the drift tolerance."""


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _uniform(*values):
    """The flavor rule: (values, exact), the values all converted to Fraction
    when every one is int/Fraction, else all to float."""
    if all(is_exact(v) for v in values):
        return [Fraction(v) if isinstance(v, int) else v for v in values], True
    return [float(v) for v in values], False


def in_section(p: Point, width: Scalar = 1) -> bool:
    """Exact membership test for Omega_t (t = width, default the unit section),
    floats too: a + b > t is the sign of (max(a, b) - t) + min(a, b), whose
    subtraction is exact (Sterbenz) wherever the float sum a + b may round to t."""
    a, b = p
    return 0 < a <= width and 0 < b <= width and \
        ((a - width) + b if a >= b else (b - width) + a) > 0


def check_section(p: Point, width: Scalar = 1):
    """Validate p against the width-`width` section and fix its flavor.

    Returns (a, b, width, exact) in the flavor `_uniform` gives a, b and the
    width, as for a basis.  Float points within `_reproject`'s tolerance of a
    nonempty finite section are accepted, unless their index (width + a)/b
    overflows, and returned with a <= width and b through `_reproject`.
    """
    a, b = p
    (a, b, width), exact = _uniform(a, b, width)
    if exact:
        inside = in_section((a, b), width)
    else:
        tol = DRIFT_TOL * max(1.0, width)
        inside = 0 < width < math.inf and 0 < a <= width + tol and 0 < b <= width + tol \
            and (width - min(a, width)) - b <= tol
        if inside:
            a = min(a, width)
            b = _reproject(a, b, width)
    if not inside:
        raise DomainError(f"({a}, {b}) not in the width-{width} section")
    if not exact and (width + a) / b == math.inf:
        raise DomainError(f"({a}, {b}) is too close to the cusp: its index overflows a float")
    return a, b, width, exact


class IntMatrix2(namedtuple("IntMatrix2", "a11 a12 a21 a22")):
    """2x2 integer matrix of determinant 1, row-major."""

    __slots__ = ()

    def __new__(cls, a11: int, a12: int, a21: int, a22: int):
        self = super().__new__(cls, a11, a12, a21, a22)
        if self.det() != 1:
            raise ValueError(f"determinant {self.det()} != 1")
        return self

    @classmethod
    def _make(cls, entries):  # so `_replace` checks the determinant too
        return cls(*entries)

    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> int:
        return self.a11 + self.a22

    def __matmul__(self, o: "IntMatrix2") -> "IntMatrix2":
        (a11, a12), (a21, a22) = _mat2_mul(self.rows(), o.rows())
        return IntMatrix2(a11, a12, a21, a22)

    def act_on_point(self, p: Point) -> Point:
        """Row vector action p . M^T."""
        a, b = p
        return (a * self.a11 + b * self.a12, a * self.a21 + b * self.a22)

    def rows(self):
        return ((self.a11, self.a12), (self.a21, self.a22))


def kappa(p: Point, t: Scalar = 1) -> int:
    """Index floor((t+x)/y) on the width-t section; at t = 1 it equals k
    exactly on the tile Omega_k.

    On the boundary b = 1 this gives 1 for a < 1 and 2 at (1, 1).
    """
    x, y, t, _ = check_section(p, width=t)
    return math.floor((t + x) / y)


def roof(p: Point, t: Scalar = 1) -> Scalar:
    """First-return time 1/(xy) on the width-t section, >= 1/t^2 with
    equality only at (t, t): R(a, b) = 1/(ab) at t = 1."""
    x, y, _, _ = check_section(p, width=t)
    return 1 / (x * y)


def bcz_step(p: Point, t: Scalar = 1) -> Point:
    """One application of the width-t return map
    T_t(x, y) = (y, -x + floor((t+x)/y) * y), the BCZ map at t = 1.

    Satisfies the scaling conjugacy T_t o M_t = M_t o T exactly.  Exact
    flavor is closed on the section by construction.  Float results are
    re-projected into the section when within DRIFT_TOL * max(1, t); larger
    violations raise DriftError (piecewise-linear drift is additive, so this
    is a real bug or genuine numerical decay, never expected behaviour).
    """
    x, y, t, exact = check_section(p, width=t)
    y2 = math.floor((t + x) / y) * y - x
    return (y, y2 if exact else _reproject(y, y2, t))


def _reproject(a: float, b: float, width: float = 1.0) -> float:
    """The one float clamp, for 0 < a <= width: b if in_section((a, b), width),
    else b moved into (width - a, width], or DriftError past DRIFT_TOL * max(1, width)."""
    tol = DRIFT_TOL * max(1.0, width)
    if b > width:
        if b > width + tol:
            raise DriftError(f"float orbit drifted above the width-{width:g} section: b = {b!r}")
        b = width
    if not in_section((a, b), width):
        if (width - a) - b > tol:
            raise DriftError(f"float orbit drifted below the width-{width:g} section: b = {b!r}")
        # when a is below half an ulp of the width, width - a rounds to the
        # width itself, which is then the one float inside (width - a, width]
        b = min(math.nextafter(width - a, math.inf), width)
    return b


def _orbit(p: Point, t: Scalar = 1, n: int = 0):
    """The orbit kernel: check p once and return (d, ratio, orbit).

    `orbit` yields (x, y, kappa) without end: (x/d, y/d) runs through the
    width-t orbit of p, and kappa is the index floor((t + x/d)/(y/d)) of
    each visit.  `ratio(u, v)` is u/v in the flavor of p: `Fraction` for an
    exact point with an exact width, which runs on integers with d the
    common denominator of p and t, and plain division for anything else,
    which runs in floats with d = 1.0 and is re-projected into the section
    after every step.  A caller reading n > tD visits, whose integer
    coordinates in (0, tD] must repeat, gets a per-call memo of `Fraction`.
    """
    a, b, w, exact = check_section(p, width=t)
    if not exact:
        return 1.0, truediv, _float_orbit(a, b, w)
    d, (x, y, w) = _spell(a, b, w)
    return d, functools.cache(Fraction) if w < n else Fraction, _int_orbit(x, y, w)


def _spell(*values):
    """(d, numerators): int, Fraction or finite float values as integers
    over their least common denominator d, value i being numerators[i]/d."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*(den for _, den in ratios))
    return d, [num * (d // den) for num, den in ratios]


def _int_orbit(x, y, w: int):
    """(x, y, k) at each visit of the integer orbit (x, y) -> (y, k y - x),
    k = floor((w + x)/y), on Python integers or on integer arrays stepped
    together in their dtype: the width w, a Python int, keeps it."""
    while True:
        k = (w + x) // y
        yield x, y, k
        x, y = y, k * y - x


def _itemsize(w: int) -> int:
    """Bytes of the signed integer a width-w lane steps in: the least of 1,
    2, 4, 8, 16, ... whose range holds 2w + 2, so int8 up to w = 62, int16 up
    to 16382 and int32 up to 2^30 - 2.  It holds every k y <= w + x <= 2w of
    a step, and the overshoot steps of a Farey lane (`farey._farey_lanes`)."""
    size = 1
    while 2 * w + 2 >= 2 ** (8 * size - 1):
        size *= 2
    return size


def _lane_lengths(w: int, x, y, bound: int):
    """Steps from each seed to the next along one integer orbit at width w.

    The integer arrays x and y hold K + 1 seeds, and lane j walks from
    (x[j], y[j]) until it meets (x[j+1], y[j+1]).  The lanes step together
    in the seeds' dtype, which must be at least `_itemsize(w)` bytes wide.
    A lane that has arrived would meet its seed again only a period later,
    so with the period past `bound` each lane arrives once; a lane still
    walking after `bound` steps raises."""
    import numpy as np
    tx, ty = x[1:], y[1:]
    lengths, left = np.zeros(len(tx), dtype=np.int64), len(tx)
    for s, (x, y, _) in enumerate(islice(_int_orbit(x[:-1], y[:-1], w), 1, bound + 1), 1):
        hit = (x == tx) & (y == ty)
        if hit.any():
            lengths[hit] = s
            left -= int(np.count_nonzero(hit))
            if not left:
                return lengths
    raise RuntimeError(f"{left} lanes of the width-{w} orbit did not reach their next seed "
                       f"in {bound} steps")


def _float_orbit(x: float, y: float, w: float):
    while True:
        k = math.floor((w + x) / y)
        yield x, y, k
        x, y = y, k * y - x
        if not w - x < y <= w:
            y = _reproject(x, y, w)


def cocycle(p: Point, n: int) -> IntMatrix2:
    """Ordered product A(T^{n-1} p) ... A(T p) A(p); T^n(p) = p . (result)^T."""
    if n < 1:
        raise DomainError("n must be >= 1")
    m11, m12, m21, m22 = 1, 0, 0, 1
    for _, (_, _, k) in zip(range(n), _orbit(p)[-1]):
        # A_k @ m with A_k = [[0, 1], [-1, k]]
        m11, m12, m21, m22 = m21, m22, k * m21 - m11, k * m22 - m12
    return IntMatrix2(m11, m12, m21, m22)


class OrbitTrace(NamedTuple):
    """Orbit history: points[i] = T^i(start), returns[i] = R, indices[i] = kappa."""

    points: list
    returns: list
    indices: list


def orbit_trace(p: Point, n: int) -> OrbitTrace:
    """The first n points of the orbit of p, their return times and indices.

    An exact trace of n > d steps builds each distinct coordinate and
    return time once per call (see `_orbit`); shorter exact traces and
    float traces build every value afresh.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    d, ratio, orbit = _orbit(p, n=n)
    d2 = d * d
    points, returns, indices = [], [], []
    a = check_section(p)[0]
    for _, (x, y, k) in zip(range(n), orbit):
        # T(a, b) = (b, .): consecutive points share one coordinate object
        b = ratio(y, d)
        points.append((a, b))
        returns.append(ratio(d2, x * y))
        indices.append(k)
        a = b
    return OrbitTrace(points, returns, indices)


def reduce_to_section(a: Scalar, b_raw: Scalar, width: Scalar = 1):
    """Normalize a horizontally-short basis into the section.

    Returns ((a, b), shift) with shift = floor((width - b_raw)/a) and
    b = shift*a + b_raw, the unique representative with width - a < b <= width,
    in the flavor of `check_section`.  The floor is taken once, on the exact
    values the inputs spell, and the post-condition holds on those; a decimal
    input gets b correctly rounded, possibly onto an edge of the section.
    """
    (a, b_raw, width), exact = _uniform(a, b_raw, width)
    if not (0 < a <= width < math.inf and -math.inf < b_raw < math.inf):
        raise DomainError(f"need finite a, b_raw and width with 0 < a <= width: {a}, {b_raw}, {width}")
    d, (an, bn, wn) = _spell(a, b_raw, width)
    shift = (wn - bn) // an
    b = (Fraction if exact else truediv)(shift * an + bn, d)
    return (a, b), shift


def _mat2_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )

