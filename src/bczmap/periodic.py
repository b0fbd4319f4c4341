"""Structure of periodic BCZ orbits.

A section point is periodic iff its slope b/a is rational.  Writing the
slope k/l in lowest terms, the flow period of the scaled point (a, a k/l)
is l^2/a^2, the discrete period is N(floor(sqrt(flow period))), and the
cocycle matrix around one period is the parabolic shear

    [[1 - kl, l^2], [-k^2, 1 + kl]]

for every a in (l/(l+k), 1].  All computations here are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError, IntMatrix2, _mat2_mul, _orbit, check_section, cocycle
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


def predicted_period(p) -> int:
    """N(floor(sqrt(flow period))), the structural formula for the period."""
    s = continuous_period(p)
    return farey_cardinality(math.isqrt(s.numerator // s.denominator))


def discrete_period(p) -> int:
    """Minimal P with T^P(p) = p, by exact iteration.

    The iteration cap 10 N(floor(sqrt(s))) + 10 only guards against bugs:
    the structural formula predicts the period, and the result is checked
    against it.
    """
    expected = predicted_period(p)
    cap = 10 * expected + 10
    orbit = _orbit(p)[-1]
    start = next(orbit)[:2]
    for steps, (x, y, _) in enumerate(orbit, 1):
        if (x, y) == start:
            break
        if steps >= cap:
            raise RuntimeError(f"orbit of {p} did not close within {cap} steps")
    if steps != expected:
        raise RuntimeError(
            f"period {steps} of {p} disagrees with the structural value {expected}"
        )
    return steps


def periodic_matrix(p) -> IntMatrix2:
    """Cocycle matrix around one period; parabolic (trace 2) and constant
    along the ray segment through p."""
    m = cocycle(p, discrete_period(p))
    if m.trace() != 2:
        raise RuntimeError(f"period matrix at {p} has trace {m.trace()}, not 2")
    return m


def segment_matrix(k: int, l: int) -> IntMatrix2:
    """The shear [[1-kl, l^2], [-k^2, 1+kl]] fixing the slope-k/l segment."""
    _check_coprime(k, l)
    return IntMatrix2(1 - k * l, l * l, -k * k, 1 + k * l)


def period_on_segment(k: int, l: int, r: int) -> int:
    """Period N(l + r - 1) on the r-th subinterval (l/(l+r), l/(l+r-1)] of
    the slope-k/l segment, 1 <= r <= k."""
    _check_coprime(k, l)
    if not 1 <= r <= k:
        raise DomainError(f"r must lie in [1, {k}]")
    return farey_cardinality(l + r - 1)


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


@dataclass
class PeriodicOrbitReport:
    point: tuple
    slope: Fraction
    discrete_period: int
    continuous_period: Fraction
    matrix: IntMatrix2


def orbit_report(p) -> PeriodicOrbitReport:
    """Full periodic-orbit data with the flow period re-derived from roofs.

    The roofs telescope: R(p_0) + ... + R(p_{n-1}) = m12 / (a_0 a_n) for the
    cocycle m = cocycle(p, n), since the first coordinates a_i and the
    entries m12 both obey x_{i+2} = kappa(p_i) x_{i+1} - x_i.  After one
    period a_n = a_0.
    """
    period = discrete_period(p)
    s = continuous_period(p)
    m = cocycle(p, period)
    total = m.a12 / check_section(p)[0] ** 2
    if total != s:
        raise RuntimeError(f"roof sum {total} differs from flow period {s}")
    return PeriodicOrbitReport(p, slope_fraction(p), period, s, m)


def hierarchy_report(q_max: int) -> list:
    """Periods along the scaling family (t/Q, t), t in (Q/(Q+1), 1].

    Each record confirms the constant period N(Q) at five interior t and at
    t = 1, and the jump phi(Q+1) picked up at the segment boundary.
    """
    if q_max < 2:
        raise DomainError("q_max must be >= 2")
    out = []
    for big_q in range(1, q_max + 1):
        lo = Fraction(big_q, big_q + 1)
        ts = [lo + (1 - lo) * Fraction(j, 6) for j in range(1, 7)]  # five samples and t = 1
        periods = {discrete_period((t / big_q, t)) for t in ts}
        if periods != {farey_cardinality(big_q)}:
            raise RuntimeError(f"period not constant on the Q = {big_q} segment: {periods}")
        out.append({
            "Q": big_q,
            "period": farey_cardinality(big_q),
            "jump_to_next": totient(big_q + 1),
        })
    for rec in out[:-1]:
        nxt = farey_cardinality(rec["Q"] + 1)
        if nxt - rec["period"] != rec["jump_to_next"]:
            raise RuntimeError("period jump disagrees with the totient")
    return out
