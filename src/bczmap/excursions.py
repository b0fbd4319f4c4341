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
from itertools import chain
from typing import NamedTuple

from .core import DomainError, _orbit, _reproject, check_section


def vector_length_profile(v, s):
    """Sup-norm of h_s v = (x, y - sx) for a vector v = (x, y) with x > 0.

    As a function of s this is flat at |x| on [sigma - 1, sigma + 1] around
    the slope sigma = y/x, with slope -+|x| outside.
    """
    x, y = v
    if not x > 0:
        raise DomainError("profile requires a positive first coordinate")
    return max(x, abs(y - s * x))


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
    """Birkhoff averages over n section visits (floats, drift-monitored).

    alpha_mean           mean of 1/a at minima  -> 2
    length_mean          mean of a at minima    -> 2/3
    peak_reciprocal_mean mean of 1/M            -> (2/3)(13 - 8 sqrt 2)
    peak_mean            mean of M              -> (2/3)(7 - 4 sqrt 2)
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


def excursion_averages(start, n: int, record_every: int = 0) -> ExcursionAverages:
    """Running averages a_N, l_N, A_N, L_N over n BCZ steps.

    Exact-rational starts have rational slope, hence periodic orbits; they
    are accepted with a warning and demoted to floats.  Float starts are
    assumed irrational.  A step that leaves the section by at most the drift
    tolerance is clamped back by `_reproject`, and `repairs` counts the
    points it moved; a larger drift aborts with DriftError.
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
    a, b = float(a), float(b)
    sum_alpha = sum_len = sum_peak = sum_rpeak = 0.0
    repairs = 0
    history = []
    floor = math.floor
    # the loop runs from one history row to the next, so no step tests
    # record_every; the BCZ step is inline, since a generator costs it 10-20%
    stops = chain(range(record_every, n, record_every), (n,)) if record_every else (n,)
    i = 0
    for stop in stops:
        for i in range(i + 1, stop + 1):
            sum_alpha += 1.0 / a
            sum_len += a
            m = b if b > a else a
            r = 1.0 / (a + b)
            if r > m:
                m = r
            sum_peak += m
            sum_rpeak += 1.0 / m
            k = floor((1.0 + a) / b)
            a, b = b, k * b - a
            if not 1.0 - a < b <= 1.0:  # true outside the section, and at some points inside
                b, drifted = _reproject(a, b), b
                repairs += b != drifted
        if record_every:
            history.append((i, sum_alpha / i, sum_len / i, sum_rpeak / i, sum_peak / i))
    return ExcursionAverages(
        sum_alpha / n, sum_len / n, sum_rpeak / n, sum_peak / n, n, repairs, history
    )
