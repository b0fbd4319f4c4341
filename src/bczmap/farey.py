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
reduced j/K, whose first step is its successor in F(Q).  All lanes step
together for the longest stretch plus two steps, a lane past its own
writing what the next one writes; each seed and its successor, read back
where the lanes below left them, then prove every lane by induction from 0/1.
Neighbours in F(n) come from one step, `_predecessor`, whose reflection is
the successor; `lattices` reads a first section hit and its section point
off two consecutive predecessors.

F(Q) is sorted, so the fractions in an interval I form one contiguous index
range, found by bisection with exact integer comparisons.  All empirical
statistics of F(Q) (gaps, h-gaps, indices, denominator moments, excursion
functionals) are averages against the uniform measure on the orbit points
whose fraction lands in I, read from one run of consecutive denominators.
`_blocks` reads that run in blocks of at most _BLOCK fractions, each
overlapping the next by the neighbours a statistic needs, so every
temporary a statistic makes fits in cache and only the arrays it returns
are as long as the selection.  A block is a view of the level's arrays
unless it wraps from 1/1 back to 0/1, which `_run` alone does.  `_blocks`
is the only reader of a selection.

N(Q) and phi(q) are integer arithmetic, so `import bczmap` and counting a
level load no numpy; the functions that build or read F(Q)'s arrays import it.
"""

from __future__ import annotations

import cmath
import math
import os
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Sequence

from .core import DomainError, _int_orbit, _itemsize, _lane_lengths

if TYPE_CHECKING:
    import numpy as np

#: bytes one memo entry of `farey_cardinality` takes at its peak: 80-144
#: measured for Q = 10^4..10^8, depending on where the dict last resized
_COUNT_ENTRY_BYTES = 160


def _check_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, what could not fit in physical memory."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        raise DomainError(f"{what} needs {nbytes / 2**30:.3g} GiB, more than the "
                          f"{total / 2**30:.3g} GiB of physical memory")


def totient(q: int) -> int:
    """phi(q), by trial division."""
    if q < 1:
        raise DomainError(f"totient needs q >= 1, not {q}")
    phi, p = q, 2
    while p * p <= q:
        if q % p == 0:
            phi -= phi // p
            while q % p == 0:
                q //= p
        p += 1
    return phi - phi // q if q > 1 else phi


def farey_cardinality(Q: int) -> int:
    """N(Q) = sum_{q <= Q} phi(q), the length of F(Q) (0/1 included, 1/1 not).

    The pairs 1 <= p <= q <= m grouped by gcd give sum_{d >= 1} N(floor(m/d))
    = m(m+1)/2.  Since floor(floor(Q/a)/b) = floor(Q/ab), this runs bottom-up
    over the 2 isqrt(Q) or so values floor(Q/d): O(Q^{3/4}) steps in all.
    """
    if Q < 1:
        raise DomainError("Q must be >= 1")
    r = math.isqrt(Q)
    _check_memory(_COUNT_ENTRY_BYTES * (2 * r + 1), f"the count of F({Q})")
    N = {}
    for m in chain(range(1, r + 1), (Q // k for k in range(r, 0, -1))):
        total, d = m * (m + 1) // 2, 2
        while d <= m:  # the d sharing one v = floor(m/d) run up to e
            v = m // d
            e = m // v
            total -= (e - d + 1) * N[v]
            d = e + 1
        N[m] = total
    return N[Q]


class FareySequence:
    """Level-Q Farey fractions as parallel denominator and numerator arrays.

    The cycle is stored closed: `q` and `p` hold N + 1 entries, the last one
    gamma_{N+1} = 1/1, so each neighbour pair (q_i, q_{i+1}) is two views of
    one array.  `denominators` and `numerators` are the first N entries.
    Both are in the narrowest signed integer that holds 2Q + 2 (`_itemsize`),
    so a product of two entries can overflow: cast before multiplying.
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
#: to Q = 1020, 2020 and 3020 together take about 17 MB in int16.  The level
#: used last stays cached even when it alone is larger.
_CACHE_BYTES = 100 * 2**20

#: level -> FareySequence, least recently used first
_orbit_cache: dict[int, FareySequence] = {}

#: selected gamma_i per block of a window: a block's denominators and the
#: float buffers a statistic fills from them (2^14 doubles, 128 KiB) stay in cache
_BLOCK = 2**14


def _predecessor(u: int, v: int, n: int):
    """(k, f) with u f - k v = 1 and f <= n maximal, for v <= n and u of any
    sign: the neighbour k/f just below u/v in F(n) shifted by the integers.
    The successor of a/b is minus the predecessor of -a/b."""
    f = n - (n - pow(u, -1, v)) % v
    return (u * f - 1) // v, f


def _farey_predecessor(i: int, q: int, n: int):
    """(k, f): the last fraction k/f <= i/q in F(n), for n >= 1; a fraction
    of F(n) is its own."""
    near = Fraction(i, q).limit_denominator(n)  # one of the two F(n) neighbours
    u, v = near.numerator, near.denominator
    return (u, v) if u * q <= i * v else _predecessor(u, v, n)


def _lane_seeds(Q: int, K: int):
    """Numerators a and denominators b of the reduced j/K, j = 0..K, and the
    successor c/d of each in the cycle: in F(Q), and (Q + 1)/Q after 1/1."""
    import numpy as np
    j = np.arange(K + 1, dtype=np.int64)
    g = np.gcd(j, K)
    a, b = j // g, K // g
    d = np.array([_predecessor(-x, y, Q)[1] for x, y in zip(a.tolist(), b.tolist())],
                 dtype=np.int64)
    c = (1 + a * d) // b
    return a, b, c, d


def _farey_lanes(Q: int) -> FareySequence:
    """F(Q) from K lanes of the orbit stepped together, each past its stretch
    into the next; each seed and its successor must be where the lanes below
    left them, and the lanes must cover N(Q) fractions.  Every operand is in
    the level's dtype (`core._itemsize`); Q is a Python int, which keeps it.

    Every value a kept entry is computed from is at most 2Q + 2: k q = q' + q''
    <= Q + q' <= 2Q for denominators, q' the one before, and k p <= k q up to
    1/1.  Past 1/1 a lane reads 1 + F(Q), p/q becoming (p + q)/q, and the two
    overshoot steps the seed check reads, at 1/1 and (Q + 1)/Q, have
    k p <= 2Q (1 + 1/Q).  Later steps are cut off: they feed neither k nor a
    denominator, and fixed-width integers wrap rather than raise."""
    width = _itemsize(Q)
    # 2 N(Q) - 1, the coprime pairs in [1, Q]^2, is >= Q^2 (1 - sum_p p^-2) > 0.547 Q^2:
    # the bound N(Q) >= Q^2/4 refuses hopeless levels before counting, never a feasible one
    _check_memory(2 * width * (Q * Q // 4 + 1), f"F({Q}), with at least {Q * Q // 4} fractions,")
    n = farey_cardinality(Q)
    nbytes = 2 * width * (n + 1)
    _check_memory(nbytes, f"F({Q}), with {n} fractions,")
    # before allocating, least recently used first, until this level fits beside the rest
    while _orbit_cache and \
            sum(s.q.nbytes + s.p.nbytes for s in _orbit_cache.values()) + nbytes > _CACHE_BYTES:
        del _orbit_cache[next(iter(_orbit_cache))]
    import numpy as np
    K = min(Q, math.isqrt(n))
    dtype = f"i{width}"
    a, b, c, d = (v.astype(dtype) for v in _lane_seeds(Q, K))
    lengths = _lane_lengths(Q, b, d, n)  # the orbit's period is n
    if int(lengths.sum()) != n:
        raise RuntimeError(f"lanes of F({Q}) cover {int(lengths.sum())} fractions, not N = {n}")
    seeds = np.cumsum(lengths)  # where seeds 1..K land; 1/1 at n
    at = seeds - lengths
    steps = int(lengths.max()) + 2
    p = np.empty(n + steps, dtype=dtype)
    q = np.empty(n + steps, dtype=dtype)
    # the denominators walk the orbit, and the numerators ride on its k
    p0, p1 = a[:-1], c[:-1]
    for q0, _, k in islice(_int_orbit(b[:-1], d[:-1], Q), steps):
        p[at], q[at] = p0, q0
        at += 1
        p0, p1 = p1, k * p1 - p0
    if not (np.array_equal(p[seeds], a[1:]) and np.array_equal(q[seeds], b[1:])
            and np.array_equal(p[seeds + 1], c[1:]) and np.array_equal(q[seeds + 1], d[1:])):
        raise RuntimeError(f"a lane of F({Q}) missed its next seed")
    p.resize(n + 1, refcheck=False)
    q.resize(n + 1, refcheck=False)
    return FareySequence(Q, q, p)


def farey_orbit(Q: int) -> FareySequence:
    """F(Q) generated by iterating the BCZ map from (1/Q, 1) until first return.

    Levels are cached, least recently used first out when a new level
    would take the cache past _CACHE_BYTES (`_farey_lanes`)."""
    if Q < 1:
        raise DomainError("Q must be >= 1")
    seq = _orbit_cache.pop(Q, None)
    if seq is None:
        seq = _farey_lanes(Q)
    _orbit_cache[Q] = seq
    return seq


def farey_bruteforce(Q: int) -> FareySequence:
    """Ground-truth F(Q): enumerate reduced p/q, 0 <= p < q <= Q, and sort.

    The sort key floor(p * 2^64 / q) is an order-preserving integer since
    distinct level-Q fractions differ by more than 2^-64 for any sane Q.
    The arrays are in the dtype `farey_orbit` uses.
    """
    import numpy as np
    if Q < 1:
        raise DomainError("Q must be >= 1")
    pairs = [(0, 1)]
    for q in range(2, Q + 1):
        pairs.extend((p, q) for p in range(1, q) if math.gcd(p, q) == 1)
    pairs.sort(key=lambda pq: (pq[0] << 64) // pq[1])
    pairs.append((1, 1))
    dtype = f"i{_itemsize(Q)}"
    return FareySequence(
        Q,
        np.array([q for _, q in pairs], dtype=dtype),
        np.array([p for p, _ in pairs], dtype=dtype),
    )


def orbit_flow_period(Q: int) -> Fraction:
    """Exact sum of return times along the orbit of (1/Q, 1); equals Q^2.

    The return time Q^2/(q_i q_{i+1}) equals Q^2 (gamma_{i+1} - gamma_i)
    when the neighbour determinant p_{i+1} q_i - p_i q_{i+1} is 1.  All N
    determinants are checked in int64, as p q reaches Q^2, one block of
    _BLOCK pairs at a time; the sum then telescopes to
    Q^2 (gamma_{N+1} - gamma_1).
    """
    import numpy as np
    seq = farey_orbit(Q)
    p, q = seq.p, seq.q
    for k in range(0, len(seq), _BLOCK):
        pk, qk = (a[k:k + _BLOCK + 1].astype(np.int64) for a in (p, q))
        det = pk[1:] * qk[:-1]
        det -= pk[:-1] * qk[1:]
        if (det != 1).any():
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
    """N_I(Q) = |F(Q) ∩ I|; for all of [0, 1], in any spelling, N(Q) without building F(Q)."""
    if _as_interval(interval) == (0, 1):
        return farey_cardinality(Q)
    start, end = _index_range(farey_orbit(Q), interval)
    return end - start


def _run(seq: FareySequence, a: int, length: int) -> np.ndarray:
    """Denominators q_a .. q_{a+length-1}, indices mod N: a view of `seq.q`
    up to gamma_{N+1} = 1/1, else a copy that wraps back to 0/1 (tiling
    whole cycles when longer than N).  The one place where the cycle wraps."""
    n = len(seq)
    a %= n
    if a + length <= n + 1:
        return seq.q[a:a + length]
    import numpy as np
    return seq.denominators.take(np.arange(a, a + length), mode="wrap")


def _blocks(Q: int, interval, before: int = 0, after: int = 1):
    """(m, blocks) for the m gamma_i in the closed interval: blocks yields
    (k, w) for k = 0, _BLOCK, 2 _BLOCK, ... < m, with w the denominators
    q_{start+k-before} .. q_{start+k'-1+after}, k' = min(k + _BLOCK, m),
    indices mod N.  So consecutive blocks overlap by before + after entries,
    and only a block that wraps past 1/1 is a copy.  An empty selection
    raises here, before any block is read."""
    lo, hi = _as_interval(interval)
    seq = farey_orbit(Q)
    start, end = _index_range(seq, interval)
    if start == end:
        raise DomainError(f"no Farey fraction of level {Q} in [{lo}, {hi}]")
    m = end - start

    def read():
        for k in range(0, m, _BLOCK):
            yield k, _run(seq, start - before + k, min(_BLOCK, m - k) + before + after)
    return m, read()


def _gap_scale(Q: int, interval) -> float:
    """(3/pi^2) |I| Q^2, the normalized gap is this over q_i q_{i+1}."""
    lo, hi = _as_interval(interval)
    return (3 / math.pi**2) * float(hi - lo) * Q * Q


def _gaps_into(scale: float, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """scale / (q_i q_{i+1}) for the neighbour pairs of w, in out[:len(w) - 1]."""
    import numpy as np
    g = out[:len(w) - 1]
    np.multiply(w[:-1], w[1:], out=g, dtype=float)
    return np.divide(scale, g, out=g)


def _mean(block_sums: list, m: int):
    """The mean of m terms from their per-block sums, as a Python scalar."""
    import numpy as np
    return (np.sum(block_sums) / m).item()


def empirical_integral(Q: int, interval, G: Callable):
    """rho_{Q,I}(G): mean of G over the orbit points with gamma_i in I.

    G is called once per block of at most _BLOCK points, with the two float
    coordinate arrays of the block, so it must act elementwise; a scalar
    result counts for every point of the block.  A real G gives a float, a
    complex one a complex."""
    m, blocks = _blocks(Q, interval)
    import numpy as np
    sums = []
    for _, w in blocks:
        x = w / Q
        sums.append(np.broadcast_to(G(x[:-1], x[1:]), len(w) - 1).sum())
    return _mean(sums, m)


def _gap_histogram(Q: int, interval, lo: float, hi: float, bins: int):
    """(m, edges, counts): the m normalized gaps counted into `bins` equal bins
    of [lo, hi] as np.histogram counts them, one block's gaps at a time."""
    m, blocks = _blocks(Q, interval)
    import numpy as np
    edges = np.linspace(lo, hi, bins + 1)
    scale, g = _gap_scale(Q, interval), np.empty(min(_BLOCK, m))
    return m, edges, sum(np.histogram(_gaps_into(scale, w, g), bins=edges)[0] for _, w in blocks)


def spacing_proportion(Q: int, interval, c: float, d: float) -> float:
    """Fraction of selected gaps with normalized value in the open interval (c, d)."""
    return h_spacing_proportion(Q, interval, [(c, d)])


def h_spacing_proportion(Q: int, interval, box: Sequence[tuple]) -> float:
    """Fraction of i (gamma_i in I) whose h consecutive normalized gaps lie in the box.

    The j-th component of the gap tuple at gamma_i is the normalized gap
    between gamma_{i+j-1} and gamma_{i+j}; indices wrap cyclically.  Each
    component (c, d) of the box is an open interval with 0 <= c <= d.
    """
    if len(box) < 1:
        raise DomainError("box must contain at least one interval")
    if not all(0 <= c <= d for c, d in box):  # a nan bound fails too
        raise DomainError(f"need 0 <= c <= d for every box component, not {list(box)}")
    h = len(box)
    m, blocks = _blocks(Q, interval, after=h)
    import numpy as np
    scale, buf = _gap_scale(Q, interval), np.empty(min(_BLOCK, m) + h - 1)
    count = 0
    for _, w in blocks:
        gaps = _gaps_into(scale, w, buf)
        mk = len(gaps) - h + 1  # the gamma_i of this block
        inside = np.ones(mk, dtype=bool)
        for j, (cj, dj) in enumerate(box):
            gj = gaps[j:j + mk]
            inside &= gj > cj
            inside &= gj < dj
        count += int(np.count_nonzero(inside))
    return count / m


def index_values(Q: int, interval=(0, 1)) -> np.ndarray:
    """Farey indices nu(gamma_i) = (q_{i-1} + q_{i+1}) / q_i for gamma_i in I.

    Neighbors are cyclic; division is exact (a Farey-neighbor identity),
    checked at runtime on every block: the float quotient times q_i must
    give q_{i-1} + q_{i+1} back in integers.  An empty selection raises, as
    for every statistic.  The indices are at most 2Q and come in the level's
    dtype; q_{i-1} + q_{i+1} <= 2Q fits it, and so does the check's product,
    which is at most that sum.  Cast them before multiplying.
    """
    if Q < 2:
        raise DomainError("indices need Q >= 2")
    m, blocks = _blocks(Q, interval, before=1)
    import numpy as np
    nu = np.empty(m, dtype=f"i{_itemsize(Q)}")
    for k, w in blocks:
        qi, total = w[1:-1], w[:-2] + w[2:]
        v = np.true_divide(total, qi, out=nu[k:k + len(qi)], casting="unsafe")
        if (v * qi != total).any():
            raise RuntimeError("index identity (q_{i-1}+q_{i+1}) | q_i failed")
    return nu


def moment_sum(Q: int, interval, s, t):
    """Normalized denominator moment sum (1/(N_I Q^{s+t})) sum q_i^s q_{i+1}^t.

    Equals the empirical integral of x^s y^t; complex exponents supported,
    non-finite ones refused.  x^s and y^t are read off tables over the Q
    values q/Q, complex when an exponent is.
    """
    if not (cmath.isfinite(s) and cmath.isfinite(t)):
        raise DomainError(f"moment exponents must be finite, not {s}, {t}")
    s, t = (e if isinstance(e, complex) else float(e) for e in (s, t))  # a Fraction too
    m, blocks = _blocks(Q, interval)
    import numpy as np
    # entry q holds (q/Q)^e; entry 0 stays 0, as no q_i is 0 and 0^e may divide by zero
    x = np.arange(1, Q + 1) / Q
    xs, yt = np.zeros((2, Q + 1), dtype=np.result_type(x, s, t))
    xs[1:], yt[1:] = x ** s, x ** t
    sums = []
    for _, w in blocks:
        v = xs.take(w[:-1])
        v *= yt.take(w[1:])
        sums.append(v.sum())
    return _mean(sums, m)


def counting_bound_check(Q: int, interval=(0, 1)) -> bool:
    """N_I(Q) >= min(|I|/(18 pi), |I|^2/4) * Q^2."""
    n = interval_count(Q, interval)
    if n <= 0:
        raise DomainError("counting bound undefined for an empty selection")
    lo, hi = _as_interval(interval)
    length = float(hi - lo)
    c1 = min(length / (18 * math.pi), length * length / 4)
    return n >= c1 * Q * Q
