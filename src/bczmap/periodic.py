"""Structure of periodic BCZ orbits.

A section point is periodic iff its slope b/a is rational: its orbit is a
closed horocycle whose section hits run once through a Farey sequence.
For the slope k/l in lowest terms, the flow period is l^2/a^2, the discrete
period is N(floor(l/a)), and the cocycle matrix around one period is the
parabolic shear [[1 - kl, l^2], [-k^2, 1 + kl]] for every a on the slope's
segment.  The answers here are these closed forms, exact and computed
without stepping the map; the tests check each against the iterated orbit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, pairwise
from typing import NamedTuple

from .core import DomainError, IntMatrix2, _mat2_mul, check_section
from .farey import farey_cardinality, totient


def slope_fraction(p) -> Fraction:
    """b/a in lowest terms (exact flavor only)."""
    a, b, _, exact = check_section(p)
    if not exact:
        raise DomainError("periodic-orbit analysis requires exact rationals")
    return b / a


def continuous_period(p) -> Fraction:
    """Flow period l^2/a^2 where b/a = k/l in lowest terms."""
    l = slope_fraction(p).denominator
    return (l / check_section(p)[0]) ** 2


def discrete_period(p) -> int:
    """Minimal P with T^P(p) = p: N(floor(sqrt(flow period))) = N(floor(l/a))."""
    return farey_cardinality(math.isqrt(math.floor(continuous_period(p))))


#: the older name of `discrete_period`, which the benchmark's worker calls
predicted_period = discrete_period


def periodic_matrix(p) -> IntMatrix2:
    """Cocycle matrix around one period, the shear [[1-kl, l^2], [-k^2, 1+kl]]
    for the slope k/l of p: parabolic (trace 2), the same along the segment."""
    s = slope_fraction(p)
    k, l = s.numerator, s.denominator
    return IntMatrix2(1 - k * l, l * l, -k * k, 1 + k * l)


def segment_matrix(k: int, l: int) -> IntMatrix2:
    """The shear [[1-kl, l^2], [-k^2, 1+kl]] fixing the slope-k/l segment,
    the period matrix of its point a = 1."""
    _check_coprime(k, l)
    return periodic_matrix((1, Fraction(k, l)))


def shear_conjugation_check(k: int, l: int) -> bool:
    """Exact check that the segment shear is conjugate to [[1, k^2+l^2], [0, 1]]
    by the rotation-like matrix [[l, k], [-k, l]] / sqrt(k^2+l^2)."""
    _check_coprime(k, l)
    s = segment_matrix(k, l)
    n = k * k + l * l
    u = ((l, k), (-k, l))
    ut = ((l, -k), (k, l))
    m = _mat2_mul(_mat2_mul(u, s.rows()), ut)
    return all(m[i][j] % n == 0 for i in range(2) for j in range(2)) and (
        m[0][0] // n, m[0][1] // n, m[1][0] // n, m[1][1] // n) == (1, n, 0, 1)


def _check_coprime(k: int, l: int) -> None:
    if not (1 <= k <= l):
        raise DomainError("need 1 <= k <= l")
    if math.gcd(k, l) != 1:
        raise DomainError(f"k = {k} and l = {l} must be coprime")


class PeriodicOrbitReport(NamedTuple):
    point: tuple
    slope: Fraction
    discrete_period: int
    continuous_period: Fraction
    matrix: IntMatrix2


def orbit_report(p) -> PeriodicOrbitReport:
    """Slope, discrete and flow periods, and period matrix of p."""
    return PeriodicOrbitReport(p, slope_fraction(p), discrete_period(p),
                               continuous_period(p), periodic_matrix(p))


def hierarchy_report(q_max: int) -> list:
    """Periods along the scaling family (t/Q, t), t in (Q/(Q+1), 1].

    The Q-th segment has slope Q/1 and a = t/Q in (1/(Q+1), 1/Q], where
    floor(1/a) = Q: its period is N(Q), and crossing a = 1/(Q+1) into the
    next segment adds phi(Q+1), so the periods are the running sums
    N(Q + 1) = N(Q) + phi(Q + 1).  The tests check them against iterated
    orbits at sample t.
    """
    if q_max < 2:
        raise DomainError("q_max must be >= 2")
    return [{"Q": q, "period": n, "jump_to_next": n2 - n} for q, (n, n2) in
            enumerate(pairwise(_farey_counts(1, q_max + 1)), start=1)]


def _farey_counts(first: int, count: int) -> list:
    """N(first), ..., N(first + count - 1): one count of N(first), then the
    running sum N(q + 1) = N(q) + phi(q + 1)."""
    return list(accumulate((totient(q) for q in range(first + 1, first + count)),
                           initial=farey_cardinality(first)))
