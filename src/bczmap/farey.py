"""Farey sequences as periodic BCZ orbits, with a brute-force oracle and statistics.

The orbit of (1/Q, 1) is periodic of period N(Q) = sum_{q <= Q} phi(q) and
visits exactly the points (q_i/Q, q_{i+1}/Q) indexed by the Farey sequence
F(Q) = {0/1 = gamma_1 < ... < gamma_N} of level Q.  Denominators are
recovered as Q*a along the orbit, so the whole orbit runs in integer
arithmetic:

    (q, q') -> (q', floor((Q + q)/q') * q' - q)

which is the BCZ step with denominators cleared.  Numerators obey the same
three-term recurrence with the same multiplier k_i = floor((Q + q_{i-1})/q_i),
p_{i+1} = k_i p_i - p_{i-1}, and are carried along with the denominators.
The orbit is cut into K = min(Q, isqrt(N)) lanes, one starting at each
reduced j/K, whose first step comes from a modular inverse; the lanes step
together as numpy arrays and each writes its stretch of F(Q) in place.

F(Q) is sorted, so the fractions in an interval I form one contiguous index
range, found by bisection with exact integer comparisons.  All empirical
statistics of F(Q) (gaps, h-gaps, indices, denominator moments, excursion
functionals) are averages against the uniform measure on the orbit points
whose fraction lands in I, read from one run of consecutive denominators:
`_window`, the one place where the cycle wraps from 1/1 back to 0/1.
"""

from __future__ import annotations

import cmath
import math
import os
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import DomainError

PI2_3 = math.pi**2 / 3

_totients_upto: np.ndarray = np.array([0, 1], dtype=np.int64)  # phi(0) unused


def _check_memory(nbytes: int, what: str) -> int:
    """Refuse, before allocating, arrays that could not fit in physical
    memory; return the physical memory in bytes."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        raise DomainError(f"{what} needs {nbytes / 2**30:.3g} GiB, more than the "
                          f"{total / 2**30:.3g} GiB of physical memory")
    return total


def _extend_totients(n: int) -> None:
    global _totients_upto
    if n < len(_totients_upto):
        return
    total = _check_memory(8 * (n + 1), f"the totients up to {n}")
    # at least double, memory allowing: asking for q = 1, 2, 3, ... sieves O(log q) times
    size = max(n + 1, min(2 * len(_totients_upto), total // 8))
    phi = np.arange(size, dtype=np.int64)
    for p in range(2, size):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    _totients_upto = phi


def totient(q: int) -> int:
    _extend_totients(q)
    return int(_totients_upto[q])


def farey_cardinality(Q: int) -> int:
    """N(Q) = sum_{q <= Q} phi(q), the length of F(Q) (0/1 included, 1/1 not)."""
    if Q < 1:
        raise DomainError("Q must be >= 1")
    _extend_totients(Q)
    return int(_totients_upto[1 : Q + 1].sum())


class FareySequence:
    """Level-Q Farey fractions as parallel denominator and numerator arrays.

    The cycle is stored closed: `q` and `p` hold N + 1 entries, the last one
    gamma_{N+1} = 1/1, so each neighbour pair (q_i, q_{i+1}) is two views of
    one array.  `denominators` and `numerators` are the first N entries.
    """

    def __init__(self, level: int, q: np.ndarray, p: np.ndarray):
        self.level = level
        self.q, self.p = q, p
        self.denominators, self.numerators = q[:-1], p[:-1]

    def __len__(self) -> int:
        return len(self.denominators)

    def fractions(self) -> list:
        return [Fraction(int(p), int(q)) for p, q in zip(self.numerators, self.denominators)]


#: bytes of denominators and numerators `_orbit_cache` may hold: levels up
#: to Q = 1020, 2020 and 3020 together take about 70 MB.  The level used
#: last stays cached even when it alone is larger.
_CACHE_BYTES = 100 * 2**20

#: level -> FareySequence, least recently used first
_orbit_cache: dict[int, FareySequence] = {}


def _lane_seeds(Q: int, K: int):
    """Numerators a and denominators b of the reduced j/K, j = 0..K, and the
    successor c/d in F(Q) of each but the last.

    b c - a d = 1 with d <= Q maximal, so d is the largest d <= Q with
    a d = -1 (mod b)."""
    j = np.arange(K + 1, dtype=np.int64)
    g = np.gcd(j, K)
    a, b = j // g, K // g
    d = np.array([-pow(x, -1, y) % y for x, y in zip(a[:-1].tolist(), b[:-1].tolist())],
                 dtype=np.int64)
    d += (Q - d) // b[:-1] * b[:-1]
    c = (1 + a[:-1] * d) // b[:-1]
    return a, b, c, d


def _lane_lengths(Q: int, b: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """Steps from each seed to the next, on denominators alone: the pair
    (q_i, q_{i+1}) is an orbit point, so it fixes i within the period n.
    A lane that has arrived would return only n steps later, so each lane
    hits its next seed once."""
    # the point after gamma_{N+1} = 1/1 is the start (1, Q) again
    tb, td = b[1:], np.append(d[1:], Q)
    x, y = b[:-1], d
    lengths = np.zeros(len(d), dtype=np.int64)
    left = len(d)
    for s in range(1, n + 1):
        k = (Q + x) // y
        x, y = y, k * y - x
        hit = (x == tb) & (y == td)
        if hit.any():
            lengths[hit] = s
            left -= int(np.count_nonzero(hit))
            if not left:
                return lengths
    raise RuntimeError(f"{left} lanes of F({Q}) did not reach their next seed in {n} steps")


def _farey_lanes(Q: int) -> FareySequence:
    """F(Q) from K lanes of the orbit stepped together; each lane must land
    on the next seed, and the lanes must cover N(Q) fractions."""
    n = farey_cardinality(Q)
    _check_memory(16 * (n + 1), f"F({Q}), with {n} fractions,")
    K = min(Q, math.isqrt(n))
    a, b, c, d = _lane_seeds(Q, K)
    lengths = _lane_lengths(Q, b, d, n)
    if int(lengths.sum()) != n:
        raise RuntimeError(f"lanes of F({Q}) cover {int(lengths.sum())} fractions, not N = {n}")
    # longest lane first, so the lanes still running are always a prefix
    order = np.argsort(-lengths, kind="stable")
    todo = lengths[order].tolist()
    at = (np.cumsum(lengths) - lengths)[order]
    p0, q0, p1, q1 = a[:-1][order], b[:-1][order], c[order], d[order]
    end_p, end_q = a[1:][order], b[1:][order]
    p = np.empty(n + 1, dtype=np.int64)
    q = np.empty(n + 1, dtype=np.int64)
    p[n] = q[n] = 1
    m = K
    for s in range(todo[0] + 1):
        r = m
        while r and todo[r - 1] == s:
            r -= 1
        if r < m and not (np.array_equal(p0[r:m], end_p[r:m])
                          and np.array_equal(q0[r:m], end_q[r:m])):
            raise RuntimeError(f"a lane of F({Q}) missed its next seed after {s} steps")
        m = r
        q[at[:m]] = q0[:m]
        p[at[:m]] = p0[:m]
        at[:m] += 1
        k = (Q + q0[:m]) // q1[:m]
        p0[:m] = k * p1[:m] - p0[:m]
        q0[:m] = k * q1[:m] - q0[:m]
        p0, p1, q0, q1 = p1, p0, q1, q0
    return FareySequence(Q, q, p)


def farey_orbit(Q: int) -> FareySequence:
    """F(Q) generated by iterating the BCZ map from (1/Q, 1) until first return.

    Levels are cached, least recently used first out once the cache holds
    more than _CACHE_BYTES."""
    if Q < 1:
        raise DomainError("Q must be >= 1")
    seq = _orbit_cache.pop(Q, None)
    if seq is None:
        seq = _farey_lanes(Q)
    _orbit_cache[Q] = seq
    while len(_orbit_cache) > 1 and \
            sum(s.q.nbytes + s.p.nbytes for s in _orbit_cache.values()) > _CACHE_BYTES:
        del _orbit_cache[next(iter(_orbit_cache))]
    return seq


def farey_bruteforce(Q: int) -> FareySequence:
    """Ground-truth F(Q): enumerate reduced p/q, 0 <= p < q <= Q, and sort.

    The sort key floor(p * 2^64 / q) is an order-preserving integer since
    distinct level-Q fractions differ by more than 2^-64 for any sane Q.
    """
    if Q < 1:
        raise DomainError("Q must be >= 1")
    pairs = [(0, 1)]
    for q in range(2, Q + 1):
        pairs.extend((p, q) for p in range(1, q) if math.gcd(p, q) == 1)
    pairs.sort(key=lambda pq: (pq[0] << 64) // pq[1])
    pairs.append((1, 1))
    return FareySequence(
        Q,
        np.array([q for _, q in pairs], dtype=np.int64),
        np.array([p for p, _ in pairs], dtype=np.int64),
    )


def orbit_flow_period(Q: int) -> Fraction:
    """Exact sum of return times along the orbit of (1/Q, 1); equals Q^2.

    The return time Q^2/(q_i q_{i+1}) equals Q^2 (gamma_{i+1} - gamma_i)
    when the neighbour determinant p_{i+1} q_i - p_i q_{i+1} is 1.  All N
    determinants are checked; the sum then telescopes to
    Q^2 (gamma_{N+1} - gamma_1).
    """
    seq = farey_orbit(Q)
    p, q = seq.p, seq.q
    det = p[1:] * q[:-1]
    det -= p[:-1] * q[1:]
    if np.any(det != 1):
        raise RuntimeError(f"F({Q}) has a neighbour pair whose determinant is not 1")
    return Q * Q * (Fraction(int(p[-1]), int(q[-1])) - Fraction(int(p[0]), int(q[0])))


# -- interval selection and the empirical measure ---------------------------

def _as_interval(interval) -> tuple[Fraction, Fraction]:
    lo, hi = interval
    # compared before conversion: Fraction refuses inf and nan
    if not (0 <= lo <= hi <= 1):
        raise DomainError(f"interval [{lo}, {hi}] not inside [0, 1]")
    return Fraction(lo), Fraction(hi)


def _index_range(seq: FareySequence, interval) -> tuple[int, int]:
    """Indices [start, end) of the gamma_i in the closed interval.

    F(Q) is sorted, so the selection is contiguous.  Its ends are bisected,
    comparing p/q with a bound by exact integer cross-multiplication."""
    lo, hi = _as_interval(interval)
    p, q = seq.numerators, seq.denominators
    idx = range(len(seq))
    start = bisect_left(idx, True, key=lambda i: int(p[i]) * lo.denominator
                        >= lo.numerator * int(q[i]))
    end = bisect_left(idx, True, lo=start, key=lambda i: int(p[i]) * hi.denominator
                      > hi.numerator * int(q[i]))
    return start, end


def interval_count(Q: int, interval=(0, 1)) -> int:
    """N_I(Q) = |F(Q) ∩ I|."""
    if interval == (0, 1):
        return farey_cardinality(Q)
    start, end = _index_range(farey_orbit(Q), interval)
    return end - start


def _window(Q: int, interval, before: int = 0, after: int = 1, *,
            allow_empty: bool = False) -> np.ndarray:
    """Denominators q_{start-before} .. q_{end-1+after} of the gamma_i in the
    closed interval, indices mod N (before <= N): a view of `seq.q` up to
    gamma_{N+1} = 1/1, else one copy that tiles whole cycles only when
    `after` exceeds N.  An empty selection raises unless allowed."""
    lo, hi = _as_interval(interval)
    seq = farey_orbit(Q)
    start, end = _index_range(seq, interval)
    if start == end and not allow_empty:
        raise DomainError(f"no Farey fraction of level {Q} in [{lo}, {hi}]")
    a, b, n, d = start - before, end + after, len(seq), seq.denominators
    if a >= 0 and b <= n + 1:
        return seq.q[a:b]
    cycles, rest = divmod(max(b - n, 0), n)
    return np.concatenate([d[n + min(a, 0):], d[max(a, 0):b]] + [d] * cycles + [d[:rest]])


def _normalized(Q: int, interval, w: np.ndarray) -> np.ndarray:
    """(3/pi^2) |I| Q^2 / (q_i q_{i+1}) for the neighbour pairs of the window w."""
    lo, hi = _as_interval(interval)
    return (3 / math.pi**2) * float(hi - lo) * Q * Q / (w[:-1].astype(float) * w[1:])


class EmpiricalMeasure:
    """Uniform probability on the orbit points (q_i/Q, q_{i+1}/Q), gamma_i in I.

    `window` holds the consecutive denominators q_i of the selected gamma_i
    and the one after the last; qi and qn are views of it.
    """

    def __init__(self, level: int, interval, window: np.ndarray):
        self.level = level
        self.interval = interval
        self.window = window
        self.qi, self.qn = window[:-1], window[1:]

    def __len__(self) -> int:
        return len(self.qi)

    @property
    def weight(self) -> float:
        return 1.0 / len(self.qi)

    def support(self) -> list:
        Q = self.level
        return [(Fraction(int(a), Q), Fraction(int(b), Q)) for a, b in zip(self.qi, self.qn)]

    def integral(self, G: Callable):
        """G is called once with the two float coordinate arrays; a real G
        gives a float, a complex one a complex."""
        x = self.window / self.level
        return np.mean(G(x[:-1], x[1:])).item()


def empirical_measure(Q: int, interval=(0, 1)) -> EmpiricalMeasure:
    return EmpiricalMeasure(Q, interval, _window(Q, interval))


def empirical_integral(Q: int, interval, G: Callable):
    """rho_{Q,I}(G): mean of G over the orbit points with gamma_i in I."""
    return empirical_measure(Q, interval).integral(G)


def normalized_gaps(Q: int, interval=(0, 1)) -> np.ndarray:
    """(3/pi^2) |I| Q^2 (gamma_{i+1} - gamma_i) for the selected gamma_i."""
    return _normalized(Q, interval, _window(Q, interval))


def spacing_proportion(Q: int, interval, c: float, d: float) -> float:
    """Fraction of selected gaps with normalized value in the open interval (c, d)."""
    if not 0 <= c <= d:
        raise DomainError("need 0 <= c <= d")
    g = normalized_gaps(Q, interval)
    return float(np.count_nonzero((g > c) & (g < d)) / len(g))


def h_spacing_proportion(Q: int, interval, box: Sequence[tuple]) -> float:
    """Fraction of i (gamma_i in I) whose h consecutive normalized gaps lie in the box.

    The j-th component of the gap tuple at gamma_i is the normalized gap
    between gamma_{i+j-1} and gamma_{i+j}; indices wrap cyclically.
    """
    if len(box) < 1:
        raise DomainError("box must contain at least one interval")
    gaps = _normalized(Q, interval, _window(Q, interval, after=len(box)))
    m = len(gaps) - len(box) + 1  # the number of selected gamma_i
    inside = np.ones(m, dtype=bool)
    for j, (cj, dj) in enumerate(box):
        gj = gaps[j:j + m]
        inside &= (gj > cj) & (gj < dj)
    return float(np.count_nonzero(inside) / m)


def index_values(Q: int, interval=(0, 1)) -> np.ndarray:
    """Farey indices nu(gamma_i) = (q_{i-1} + q_{i+1}) / q_i for gamma_i in I.

    Neighbors are cyclic; division is exact (a Farey-neighbor identity),
    checked at runtime.
    """
    if Q < 2:
        raise DomainError("indices need Q >= 2")
    w = _window(Q, interval, before=1, allow_empty=True)
    qi, nu = w[1:-1], w[:-2] + w[2:]
    if np.any(nu % qi):
        raise RuntimeError("index identity (q_{i-1}+q_{i+1}) | q_i failed")
    nu //= qi
    return nu


def moment_sum(Q: int, interval, s, t):
    """Normalized denominator moment sum (1/(N_I Q^{s+t})) sum q_i^s q_{i+1}^t.

    Equals the empirical integral of x^s y^t; complex exponents supported,
    non-finite ones refused.
    """
    if not (cmath.isfinite(s) and cmath.isfinite(t)):
        raise DomainError(f"moment exponents must be finite, not {s}, {t}")
    if isinstance(s, complex) or isinstance(t, complex):
        return empirical_integral(Q, interval, lambda x, y: np.exp(s * np.log(x) + t * np.log(y)))
    return empirical_integral(Q, interval, lambda x, y: x**float(s) * y**float(t))


def counting_bound_check(Q: int, interval=(0, 1)) -> bool:
    """N_I(Q) >= min(|I|/(18 pi), |I|^2/4) * Q^2."""
    n = interval_count(Q, interval)
    if n <= 0:
        raise DomainError("counting bound undefined for an empty selection")
    lo, hi = _as_interval(interval)
    length = float(hi - lo)
    c1 = min(length / (18 * math.pi), length * length / 4)
    return n >= c1 * Q * Q
