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
from dataclasses import dataclass, field
from fractions import Fraction

from .core import DomainError, DriftError, _orbit, _reproject, check_section, is_exact


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
    if is_exact(a) and is_exact(b):
        return max(Fraction(a), Fraction(b), 1 / (Fraction(a) + Fraction(b)))
    return max(a, b, 1.0 / (a + b))


def handoff(p):
    """Hand-off time and peak of the excursion leaving the section at p.

    Solves max(a, sa) = max(b, -sb + 1/a) on (0, R(p)) by cases on which of
    a, b, 1/(a+b) dominates; the peak always equals M(p).  At ties (e.g. the
    fixed point (1, 1), where the profile is constant) the crossing time
    degenerates to an endpoint of the sojourn.
    """
    a, b = p
    if check_section(p) == "exact":
        a, b = Fraction(a), Fraction(b)
    return _handoff(a, b)


def _handoff(a, b):
    """handoff at a section point whose coordinates are both Fractions or
    both floats."""
    m = peak_length((a, b))
    if m == 1 / (a + b):
        return 1 / (a * (a + b)), m
    if m == a:
        return (1 / a - a) / b, m
    return b / a, m


@dataclass
class ExcursionTrace:
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
    visit time.  Works in either scalar flavor.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    d, orbit = _orbit(start)
    exact = isinstance(d, int)
    d2 = d * d
    s = 0 * start[0]
    mt, ml, xt, xl = [], [], [], []
    a = Fraction(start[0]) if exact else start[0]
    for _, (x, y, _) in zip(range(n), orbit):
        b = Fraction(y, d) if exact else y
        dt, peak = _handoff(a, b)
        mt.append(s)
        ml.append(a)
        xt.append(s + dt)
        xl.append(peak)
        s = s + (Fraction(d2, x * y) if exact else 1.0 / (x * y))
        a = b
    return ExcursionTrace(mt, ml, xt, xl)


@dataclass
class ExcursionAverages:
    """Birkhoff averages over n section visits (floats, drift-monitored)."""

    alpha_mean: float          # mean of 1/a at minima      -> 2
    length_mean: float         # mean of a at minima        -> 2/3
    peak_reciprocal_mean: float  # mean of 1/M              -> (2/3)(13 - 8 sqrt 2)
    peak_mean: float           # mean of M                  -> (2/3)(7 - 4 sqrt 2)
    steps: int
    repairs: int
    history: list = field(default_factory=list)  # (n, a_n, l_n, A_n, L_n) snapshots


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


def excursion_averages(start, n: int, record_every: int = 0,
                       max_repairs: int | None = None) -> ExcursionAverages:
    """Running averages a_N, l_N, A_N, L_N over n BCZ steps.

    Exact-rational starts have rational slope, hence periodic orbits; they
    are accepted with a warning and demoted to floats.  Float starts are
    assumed irrational.  Each step is re-projected into the section when
    within the drift tolerance; exceeding `max_repairs` (when set) or the
    tolerance aborts with DriftError.
    """
    if n < 1 or record_every < 0:
        raise DomainError("need n >= 1 and record_every >= 0")
    a, b = start
    if is_exact(a) and is_exact(b):
        warnings.warn(
            "rational slope: the orbit is periodic, averages converge to "
            "orbit means rather than the space averages",
            stacklevel=2,
        )
        a, b = float(a), float(b)
    check_section((a, b))
    sum_alpha = sum_len = sum_peak = sum_rpeak = 0.0
    repairs = 0
    history = []
    for i in range(1, n + 1):
        sum_alpha += 1.0 / a
        sum_len += a
        m = max(a, b, 1.0 / (a + b))
        sum_peak += m
        sum_rpeak += 1.0 / m
        if record_every and (i % record_every == 0 or i == n):
            history.append((i, sum_alpha / i, sum_len / i, sum_rpeak / i, sum_peak / i))
        # the BCZ step inline: a generator costs this loop 10-20%
        k = math.floor((1.0 + a) / b)
        a, b = b, k * b - a
        if not 1.0 - a < b <= 1.0:
            b = _reproject(a, b)
            repairs += 1
            if max_repairs is not None and repairs > max_repairs:
                raise DriftError(f"repair budget {max_repairs} exhausted at step {i}")
    return ExcursionAverages(
        sum_alpha / n, sum_len / n, sum_rpeak / n, sum_peak / n, n, repairs, history
    )
