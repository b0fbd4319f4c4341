"""Piecewise-linear cusp excursions of the horocycle flow.

Between consecutive section visits the shortest-vector length is governed
by the hand-off between the departing horizontal vector (a, 0) and the
incoming vector (b, 1/a).  The peak of the excursion is

    M(a, b) = max(a, b, 1/(a+b)),

attained where the two length profiles cross.  Long-run averages of the
lengths at minima and maxima are Birkhoff averages along the BCZ orbit.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, islice
from typing import NamedTuple

from .core import DomainError, _int_orbit, _itemsize, _lane_lengths, _orbit, _spell, check_section


def peak_length(p):
    """Excursion peak M(a, b) = max(a, b, 1/(a+b))."""
    a, b = p
    return max(a, b, 1 / (a + b))


def handoff(p):
    """Hand-off time and peak of the excursion leaving the section at p: the
    first maximum of `excursion_trace(p, 1)`.

    Solves max(a, sa) = max(b, -sb + 1/a) on (0, R(p)) by cases on which of
    a, b, 1/(a+b) dominates; the peak always equals M(p).  At ties (e.g. the
    fixed point (1, 1), where the profile is constant) the crossing time
    degenerates to an endpoint of the sojourn.
    """
    tr = excursion_trace(p, 1)
    return tr.maxima_times[0], tr.maxima_lengths[0]


class ExcursionTrace(NamedTuple):
    """Minima/maxima history along an orbit: section-hit times are the minima."""

    minima_times: list
    minima_lengths: list
    maxima_times: list
    maxima_lengths: list

    @property
    def count(self) -> int:
        return len(self.minima_times)


def excursion_trace(start, n: int) -> ExcursionTrace:
    """Times and lengths of the first n minima (and the peaks between them).

    The n-th minimum is the n-th section visit: flat intervals of the
    sup-norm profile have radius 1 around the visit, so the midpoint IS the
    visit time.  Works in either scalar flavor.  The hand-off's case is
    picked on the kernel's integers (a, b) = (x/d, y/d), so each time and
    peak is one `ratio` of integers in the exact flavor, and passing n to
    `_orbit` builds each distinct one once in a trace longer than d.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    d, ratio, orbit = _orbit(start, n=n)
    d2 = d * d
    s = ratio(0, 1)
    mt, ml, xt, xl = [], [], [], []
    a = check_section(start)[0]
    for _, (x, y, _) in zip(range(n), orbit):
        b = ratio(y, d)
        if d2 >= (x if x >= y else y) * (x + y):  # the peak is 1/(a+b)
            dt, peak = ratio(d2, x * (x + y)), ratio(d, x + y)
        elif x >= y:  # the peak is a
            dt, peak = ratio(d2 - x * x, x * y), a
        else:  # the peak is b
            dt, peak = ratio(y, x), b
        mt.append(s)
        ml.append(a)
        xt.append(s + dt)
        xl.append(peak)
        s = s + ratio(d2, x * y)
        a = b
    return ExcursionTrace(mt, ml, xt, xl)


class ExcursionAverages(namedtuple("ExcursionAverages", "alpha_mean length_mean "
                                   "peak_reciprocal_mean peak_mean steps repairs history")):
    """Birkhoff averages over n section visits of the exact orbit of the start.

    alpha_mean           mean of 1/a at minima  -> 2
    length_mean          mean of a at minima    -> 2/3
    peak_reciprocal_mean mean of 1/M            -> (2/3)(13 - 8 sqrt 2)
    peak_mean            mean of M              -> (2/3)(7 - 4 sqrt 2)
    repairs              always 0: the orbit runs on integers, so no point
                         is ever moved back onto the section
    history              (n, a_n, l_n, A_n, L_n) snapshots, a new list by default
    """

    __slots__ = ()

    def __new__(cls, alpha_mean: float, length_mean: float, peak_reciprocal_mean: float,
                peak_mean: float, steps: int, repairs: int, history: list = None):
        return super().__new__(cls, alpha_mean, length_mean, peak_reciprocal_mean, peak_mean,
                               steps, repairs, [] if history is None else history)


NAMED_STARTS = {
    "golden": (1.0, 2.0 / (1.0 + math.sqrt(5.0))),
    "sqrt2": (1.0, 1.0 / math.sqrt(2.0)),
    "e": (1.0, math.e - 2.0),
}


def named_start(name: str):
    """A section point with the given irrational slope, for ergodic runs."""
    try:
        return NAMED_STARTS[name]
    except KeyError:
        raise DomainError(f"unknown start {name!r}; choose from {sorted(NAMED_STARTS)}") from None


#: visits from which `excursion_averages` runs lanes rather than one scalar
#: loop: in a fresh process, a first `import numpy` included, the lanes took
#: 0.17 s against 0.155 s at 4 * 10^5 visits and 0.165 s against 0.18 s at
#: 4.5 * 10^5 (best of three, named starts, 2 cores, Python 3.11)
_LANES_FROM = 450_000

#: visits one scalar partial sum takes before it is folded into the total
_CHUNK = 1024


def excursion_averages(start, n: int, record_every: int = 0) -> ExcursionAverages:
    """Running averages a_N, l_N, A_N, L_N over the first n visits of the
    orbit the start spells.

    A double is a dyadic rational, so a float start is the exact point its
    doubles spell, and its orbit runs on integers at the common denominator
    D of the point: (x, y) -> (y, floor((D + x)/y) y - x), with a = x/D and
    b = y/D.  Each visit adds its four terms, each within an ulp or so of
    its exact value, and the sums are combined with `math.fsum`.  An exact
    start has rational slope, hence a periodic orbit: it runs its own orbit
    and warns that the averages are orbit means.  Short runs, orbits whose
    period N(floor(D/g)) >= floor(D/g)^2/4 could close within n visits
    (g = gcd(x, y)) and widths whose lanes need more than int64
    (`core._itemsize`) run one loop on Python integers; the rest run in
    int64 lanes (`_lane_sums`).
    """
    if n < 1 or record_every < 0:
        raise DomainError("need n >= 1 and record_every >= 0")
    a, b, _, exact = check_section(start)
    if exact:
        warnings.warn(
            "rational slope: the orbit is periodic, averages converge to "
            "orbit means rather than the space averages",
            stacklevel=2,
        )
    d, (x, y) = _spell(a, b)
    rows = [*range(record_every, n, record_every), n] if record_every else []
    if n < _LANES_FROM or _itemsize(d) > 8 or (d // math.gcd(x, y)) ** 2 <= 4 * n:
        totals, history = _scalar_sums(x, y, d, n, rows)
    else:
        totals, history = _lane_sums(x, y, d, n, rows)
    return ExcursionAverages(*(s / n for s in totals), n, 0, history)


def _fold(acc, s):
    """acc = (hi, lo) plus s: hi is the correctly rounded total, lo what it leaves out."""
    hi = math.fsum((*acc, s))
    return hi, math.fsum((*acc, s, -hi))


def _scalar_sums(x: int, y: int, d: int, n: int, rows: list):
    """The sums of 1/a, a, 1/M and M over the first n visits of the orbit of
    (x/d, y/d) on Python integers, and the history rows (i, means over the
    first i visits) for each i in `rows`.  Partial sums of at most _CHUNK
    visits, cut at every row, are folded into an exact total (hi, lo) as
    `_fold` does, on local floats: a row costs eight `math.fsum` calls."""
    fsum = math.fsum
    den = float(d) if d <= 2**53 else d  # y/den is y/d correctly rounded either way
    stops = sorted({*rows, *range(_CHUNK, n, _CHUNK), n})
    h1 = l1 = h2 = l2 = h3 = l3 = h4 = l4 = 0.0
    history = []
    a, i = x / den, 0
    for stop in stops:
        s1 = s2 = s3 = s4 = 0.0
        for _ in range(stop - i):
            # stepped inline: through `core._int_orbit` this loop takes about a
            # fifth longer (4 * 10^4 visits, named starts, 2 cores, Python 3.11)
            k = (d + x) // y
            b = y / den
            s1 += 1 / a
            s2 += a
            m = b if b > a else a
            r = 1 / (a + b)
            if r > m:
                m = r
            s3 += 1 / m
            s4 += m
            x, y, a = y, k * y - x, b
        i = stop
        t1, t2, t3, t4 = fsum((h1, l1, s1)), fsum((h2, l2, s2)), fsum((h3, l3, s3)), \
            fsum((h4, l4, s4))
        l1, l2, l3, l4 = fsum((h1, l1, s1, -t1)), fsum((h2, l2, s2, -t2)), \
            fsum((h3, l3, s3, -t3)), fsum((h4, l4, s4, -t4))
        h1, h2, h3, h4 = t1, t2, t3, t4
        if len(history) < len(rows) and rows[len(history)] == i:
            history.append((i, h1 / i, h2 / i, h3 / i, h4 / i))
    return [h1, h2, h3, h4], history


def _lane_sums(x: int, y: int, d: int, n: int, rows: list):
    """The sums of `_scalar_sums`, from K ~ sqrt(n)/2 lanes of the orbit
    stepped together in int64 (`core._itemsize(d)` <= 8), for a period past n.

    Seed j is the first visit at or after the integer time j T,
    T = ceil(n (pi^2/3)/K), read off the integer columns of the start's basis
    (a, 0), (b, 1/a) sheared by that time (`lattices._first_hit`); pi^2/3 is
    the mean return time.  Two seed times inside one return give one seed,
    kept once.  A first pass walks the lanes to their lengths
    (`core._lane_lengths`), more seeds following the last one until the lanes
    hold n visits; a second sums each lane, the last cut at visit n, and
    snapshots every lane where it ends and where a row falls.  Memory is
    O(K + rows), and the rows are built a block at a time, within
    `cli.ROW_BYTES` each.
    """
    import numpy as np
    from .lattices import _first_hit
    K = max(1, math.isqrt(n) // 2)
    gap = math.ceil(n * math.pi**2 / 3 / K)
    D, (x1, x2, y2) = _spell(Fraction(x, d), Fraction(y, d), Fraction(d, x))
    unit = D // d  # the lattice's integers are unit times the orbit's

    def seed(time):
        """The first visit at or after the integer `time`, and an integer time after it."""
        u, v, w = _first_hit(((x1, -time * x1), (x2, y2 - time * x2)), D)
        if u % unit or w % unit:
            raise RuntimeError(f"the hit ({u}, {w})/{D} is off the orbit's grid 1/{d}")
        return (u // unit, w // unit), time + v // u + 1

    xs, ys, lengths, base = [x], [y], [], 0
    while sum(lengths) < n:
        first = len(xs) - 1
        # about K seeds at first, then the few the visits still missing need
        for j in range(1, (n - sum(lengths)) * K // n + 3):
            (u, v), after = seed(base + j * gap)
            if (u, v) != (xs[-1], ys[-1]):
                xs.append(u)
                ys.append(v)
        base = after
        # visits of a lane lie in [base - 1, base + gap), and returns take >= 1
        lengths += _lane_lengths(d, np.array(xs[first:]), np.array(ys[first:]),
                                 gap + 1).tolist()

    lengths = np.array(lengths)
    ends = np.cumsum(lengths)
    nl = int(np.searchsorted(ends, n)) + 1  # the lanes holding visits 1..n
    starts = ends[:nl] - lengths[:nl]
    at = np.array(rows, dtype=np.int64)
    row_lane = np.searchsorted(ends, at)  # visit i lies in the first lane ending at or past i
    # snapshot events: lane j after its last visit, and a row after its visit
    ev_lane = np.concatenate((np.arange(nl), row_lane))
    ev_step = np.concatenate((np.minimum(lengths[:nl], n - starts), at - starts[row_lane]))
    order = np.argsort(ev_step, kind="stable")
    steps = int(ev_step.max())
    ptr = np.searchsorted(ev_step[order], np.arange(steps + 2)).tolist()
    run, snap = np.zeros((4, nl)), np.empty((4, len(ev_lane)))
    px, py = np.array(xs[:nl]), np.array(ys[:nl])
    den = float(d)
    pa = px / den
    for s, (_, py, _) in enumerate(islice(_int_orbit(px, py, d), steps), 1):
        pb = py / den
        run[0] += 1 / pa
        run[1] += pa
        m = np.maximum(pa, pb)
        np.maximum(m, 1 / (pa + pb), out=m)
        run[2] += 1 / m
        run[3] += m
        pa = pb
        if ptr[s] < ptr[s + 1]:
            e = order[ptr[s]:ptr[s + 1]]
            snap[:, e] = run[:, ev_lane[e]]
    del ev_lane, ev_step, order  # the rows need none of them
    prefix = [list(accumulate(t, _fold, initial=(0.0, 0.0))) for t in snap[:, :nl].tolist()]
    totals = [p[-1][0] for p in prefix]
    before = np.array([[hi for hi, _ in p] for p in prefix])  # lanes 0..j-1, for each j
    history = []  # a block of rows at a time: no row-long float lists beside the tuples
    for j in range(0, len(rows), _CHUNK):
        e = slice(j, j + _CHUNK)
        means = snap[:, nl + j:nl + j + _CHUNK] + before[:, row_lane[e]]
        means /= at[e]
        history += zip(rows[e], *means.tolist())
    return totals, history
