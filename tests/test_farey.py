import math
import os
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bczmap import farey
from bczmap.core import DomainError, bcz_step
from bczmap.farey import (
    counting_bound_check,
    empirical_integral,
    farey_bruteforce,
    farey_cardinality,
    farey_orbit,
    h_spacing_proportion,
    index_values,
    interval_count,
    moment_sum,
    orbit_flow_period,
    spacing_proportion,
    totient,
)
from bczmap.measure import MAX_PEAK_INTEGRAL, MIN_PEAK_INTEGRAL, hall_cdf

from oracles import (empirical_integral_whole, grid_measure, index_values_via_kappa,
                     index_values_whole, moment_sum_whole, normalized_gaps_whole,
                     whole_window)

PI2_3 = math.pi**2 / 3


def scalar_orbit(Q):
    """Oracle: F(Q) from one sequential orbit of (1/Q, 1), numerators
    recovered from the unimodularity p_{i+1} = (1 + p_i q_{i+1}) / q_i."""
    n = farey_cardinality(Q)
    qs = []
    q, r = 1, Q
    for _ in range(n):
        qs.append(q)
        q, r = r, ((Q + q) // r) * r - q
    assert (q, r) == (1, Q)
    ps = [0] * n
    for i in range(n - 1):
        ps[i + 1] = (1 + ps[i] * qs[i + 1]) // qs[i]
    return qs, ps


def fraction_flow_sum(q, Q):
    """Oracle: the sum of the return times Q^2/(q_i q_{i+1}) around the cycle,
    as a gcd-reduced fraction."""
    n = len(q)
    num, den = 0, 1
    for i in range(n):
        qq = q[i] * q[(i + 1) % n]
        num = num * qq + Q * Q * den
        den *= qq
        g = math.gcd(num, den)
        num //= g
        den //= g
    return F(num, den)


@pytest.mark.parametrize("call", [
    lambda: farey_orbit(0),
    lambda: farey_cardinality(-3),
    lambda: index_values(1),
    lambda: spacing_proportion(5, (F(3, 4), F(1, 4)), 0, 1),
    lambda: spacing_proportion(5, (0, math.inf), 0, 1),
    lambda: empirical_integral(3, (F(2, 7), F(3, 10)), lambda a, b: a),  # empty selection
    lambda: moment_sum(5, (0, 1), complex(1, math.nan), 1),
    lambda: totient(0),
    lambda: totient(-1),
    lambda: totient(-5),
    lambda: farey_bruteforce(0),
    lambda: h_spacing_proportion(200, (0, 1), [(2.0, 1.0)]),
    lambda: h_spacing_proportion(200, (0, 1), [(-5.0, 0.5)]),
    lambda: h_spacing_proportion(200, (0, 1), [(0.0, 1.0), (math.nan, 2.0)]),
    lambda: h_spacing_proportion(200, (0, 1), []),
], ids=["orbit Q=0", "cardinality Q<0", "index Q=1", "reversed interval", "infinite interval",
        "empty selection", "non-finite exponent", "totient q=0", "totient q=-1",
        "totient q=-5", "bruteforce Q=0", "h-box c>d", "h-box c<0", "h-box nan bound",
        "h-box empty"])
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_cardinality():
    assert farey_cardinality(1) == 1
    assert farey_cardinality(3) == 4
    assert farey_cardinality(4) == 6
    assert farey_cardinality(5) == 10
    # against a gcd-counting totient
    for q in range(1, 60):
        assert totient(q) == sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)


def test_bruteforce_small():
    assert [str(f) for f in farey_bruteforce(2).fractions()] == ["0", "1/2"]
    f5 = farey_bruteforce(5).fractions()
    assert [str(f) for f in f5] == [
        "0", "1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5",
    ]


def test_orbit_q5_denominators():
    assert farey_orbit(5).denominators.tolist() == [1, 5, 4, 3, 5, 2, 5, 3, 4, 5]


def test_orbit_q1_fixed_point():
    seq = farey_orbit(1)
    assert len(seq) == 1 and seq.denominators.tolist() == [1]


def test_orbit_matches_exact_bcz_iteration():
    # the integer recurrence is the BCZ map with denominators cleared
    for Q in (2, 7, 12, 30):
        seq = farey_orbit(Q)
        p = (F(1, Q), F(1))
        for i in range(len(seq)):
            assert p[0] * Q == seq.denominators[i]
            p = bcz_step(p)
        assert p == (F(1, Q), F(1))


def test_oracle_equivalence_medium():
    for Q in range(1, 61):
        assert farey_orbit(Q).denominators.tolist() == farey_bruteforce(Q).denominators.tolist()


def test_flow_period_medium():
    for Q in range(1, 61):
        q = farey_orbit(Q).denominators.tolist()
        assert orbit_flow_period(Q) == fraction_flow_sum(q, Q) == Q * Q


def test_flow_period_rejects_corrupted_sequence(monkeypatch):
    seq = farey_orbit(30)
    for i in (0, 7, len(seq) - 1):
        q = seq.q.copy()
        q[i] += 1
        bad = farey.FareySequence(30, q, seq.p)
        monkeypatch.setattr(farey, "farey_orbit", lambda Q: bad)
        with pytest.raises(RuntimeError):
            orbit_flow_period(30)


# K = isqrt(N) is 120, 180 and 210 at Q = 218, 327 and 382
@settings(max_examples=25)
@given(st.integers(1, 400))
@example(1)
@example(2)
@example(3)
@example(218)
@example(327)
@example(382)
@example(400)
def test_lanes_match_scalar_orbit_and_bruteforce(Q):
    seq = farey._farey_lanes(Q)
    qs, ps = scalar_orbit(Q)
    brute = farey_bruteforce(Q)
    assert seq.denominators.tolist() == qs == brute.denominators.tolist()
    assert seq.numerators.tolist() == ps == brute.numerators.tolist()
    assert seq.q[-1] == seq.p[-1] == 1
    # the lanes' overrun is cut off in place: the level owns its N + 1 entries
    assert seq.q.base is None and seq.p.base is None
    assert len(seq.q) == len(seq.p) == farey_cardinality(Q) + 1


def _wrong_successor_denominator(seeds, Q):
    # lane 1 starts at 1/K; its pair (K, K floor(Q/K)) has gcd K > 1, and the
    # map keeps such pairs off the primitive ones, so no seed is ever reached
    a, b, c, d = (x.copy() for x in seeds)
    d[1] = b[1] * (Q // b[1])
    return a, b, c, d


def _wrong_successor_numerator(seeds, Q):
    # denominators still run right, but lane 1's numerators end off by the
    # positive solution of the recurrence from (0, 1)
    a, b, c, d = (x.copy() for x in seeds)
    c[1] += 1
    return a, b, c, d


@pytest.mark.parametrize("wrong, message", [
    (_wrong_successor_denominator, "did not reach their next seed"),
    (_wrong_successor_numerator, "missed its next seed"),
], ids=["denominator", "numerator"])
def test_lanes_refuse_a_wrong_successor(monkeypatch, wrong, message):
    true_seeds = farey._lane_seeds
    monkeypatch.setattr(farey, "_lane_seeds", lambda Q, K: wrong(true_seeds(Q, K), Q))
    with pytest.raises(RuntimeError, match=message):
        farey._farey_lanes(30)


@settings(max_examples=150)
@given(st.integers(2, 60), st.integers(-1, 60), st.booleans(), st.integers(1, 60))
@example(Q=7, lane=-1, denominator=False, shift=1)  # 1/1's successor (Q + 1)/Q
@example(Q=7, lane=-1, denominator=True, shift=1)
@example(Q=7, lane=0, denominator=False, shift=1)  # 0/1's, which no lane below reads
def test_lanes_refuse_any_corrupted_successor(Q, lane, denominator, shift):
    # the successor c/d of seed lane mod (K + 1) moves: d to another value in
    # 1..Q + 1, or c up by shift
    assume(not denominator or shift % (Q + 1))
    true_seeds = farey._lane_seeds

    def wrong(Q, K):
        a, b, c, d = (x.copy() for x in true_seeds(Q, K))
        j = lane % (K + 1)
        if denominator:
            d[j] = (d[j] - 1 + shift) % (Q + 1) + 1
        else:
            c[j] += shift
        return a, b, c, d
    with mock.patch.object(farey, "_lane_seeds", wrong), pytest.raises(RuntimeError):
        farey._farey_lanes(Q)


@settings(max_examples=200)
@given(st.integers(1, 40), st.data(), st.integers(-3, 3))
def test_predecessor_against_the_sequence(n, data, shift):
    # F(n) with 1/1, shifted by an integer: the neighbours of the first and
    # last entries lie one period away, and the successor is the reflection
    fracs = farey_bruteforce(n).fractions() + [F(1)]
    index = data.draw(st.integers(0, len(fracs) - 1))
    x = fracs[index] + shift
    below = fracs[index - 1] if index else fracs[-2] - 1
    above = fracs[index + 1] if index + 1 < len(fracs) else fracs[1] + 1
    u, v = x.numerator, x.denominator
    k, f = farey._predecessor(u, v, n)
    assert u * f - k * v == 1 and F(k, f) == below + shift
    k, f = farey._predecessor(-u, v, n)
    assert F(-k, f) == above + shift and f == (above + shift).denominator


@settings(max_examples=200)
@given(st.integers(1, 40).flatmap(lambda q: st.tuples(
    st.integers(0, q - 1).filter(lambda i: math.gcd(i, q) == 1), st.just(q), st.integers(1, 60))))
def test_farey_predecessor_against_the_sequence(iqn):
    # for q <= n the fraction i/q is in F(n) and is its own last fraction <= i/q
    i, q, n = iqn
    at_most = [f for f in farey_bruteforce(n).fractions() if f <= F(i, q)]
    k, f = farey._farey_predecessor(i, q, n)
    assert F(k, f) == max(at_most) and math.gcd(k, f) == 1
    if q <= n:
        assert (k, f) == (i, q)


@st.composite
def level_and_interval(draw):
    """A level Q and a closed interval whose ends are Farey fractions of
    level Q, those moved by 10^-17, or arbitrary rationals."""
    Q = draw(st.integers(1, 120))
    fracs = farey_bruteforce(Q).fractions() + [F(1)]

    def end():
        kind = draw(st.sampled_from(["farey", "below", "above", "any"]))
        if kind == "any":
            return F(draw(st.integers(0, 10**6)), 10**6)
        x = draw(st.sampled_from(fracs))
        eps = F(1, 10**17)
        if kind == "farey":
            return x
        return min(F(1), x + eps) if kind == "above" else max(F(0), x - eps)

    return Q, tuple(sorted((end(), end())))


@settings(max_examples=100)
@given(level_and_interval())
def test_bisected_selection_matches_fraction_mask(case):
    Q, (lo, hi) = case
    fracs = farey_bruteforce(Q).fractions()
    inside = [i for i, f in enumerate(fracs) if lo <= f <= hi]
    start, end = farey._index_range(farey_orbit(Q), (lo, hi))
    assert list(range(start, end)) == inside
    assert interval_count(Q, (lo, hi)) == len(inside)
    if Q >= 2 and inside:
        assert index_values(Q, (lo, hi)).tolist() == index_values(Q)[inside].tolist()
    elif Q >= 2:
        with pytest.raises(DomainError, match=f"no Farey fraction of level {Q}"):
            index_values(Q, (lo, hi))


@settings(max_examples=150)
@given(level_and_interval(), st.integers(0, 1), st.floats(0, 1))
@example((1, (F(0), F(1))), 1, 1.0)
@example((3, (F(1, 2), F(1))), 0, 1.0)
def test_window_is_the_cyclic_run_of_denominators(case, before, share):
    # after runs over 0 .. 2N + 2, so windows longer than F(Q) tile it
    Q, interval = case
    seq = farey_orbit(Q)
    n = len(seq)
    after = round(share * (2 * n + 2))
    start, end = farey._index_range(seq, interval)
    if start == end:
        with pytest.raises(DomainError, match=f"no Farey fraction of level {Q}"):
            farey._blocks(Q, interval, before, after)
    else:
        # the blocks with their overlaps dropped, and the last one's tail
        expected = np.take(seq.denominators, range(start - before, end + after), mode="wrap")
        m, blocks = farey._blocks(Q, interval, before, after)
        run = []
        for k, b in blocks:
            assert b.dtype == seq.q.dtype == f"i{farey._itemsize(Q)}"
            run += b[:min(farey._BLOCK, m - k)].tolist()
        run += b[min(farey._BLOCK, m - k):].tolist()
        assert m == end - start and run == expected.tolist()


def rolled_h_spacing(Q, interval, box):
    """Oracle: the h-spacing proportion from a Fraction mask and rolled gaps."""
    lo, hi = interval
    fracs = farey_bruteforce(Q).fractions()
    mask = np.array([lo <= f <= hi for f in fracs])
    q = np.array([f.denominator for f in fracs])
    gaps = (3 / math.pi**2) * float(hi - lo) * Q * Q / (q.astype(float) * np.roll(q, -1))
    inside = mask.copy()
    for j, (c, d) in enumerate(box):
        gj = np.roll(gaps, -j)
        inside &= (gj > c) & (gj < d)
    return float(np.count_nonzero(inside) / np.count_nonzero(mask))


@settings(max_examples=60)
@given(level_and_interval(), st.lists(st.tuples(st.floats(0, 1), st.floats(0.5, 4)).map(sorted),
                                      min_size=1, max_size=12))
@example((1, (F(0), F(1))), [(0.0, 4.0)] * 5)
@example((3, (F(1, 2), F(1))), [(0.0, 4.0), (0.5, 2.0)] * 4)
def test_h_spacing_matches_rolled_oracle(case, box):
    # boxes longer than the selection, or than F(Q) itself, wrap around the cycle
    Q, interval = case
    if interval_count(Q, interval) == 0:
        with pytest.raises(ValueError):
            h_spacing_proportion(Q, interval, box)
    else:
        assert h_spacing_proportion(Q, interval, box) == rolled_h_spacing(Q, interval, box)


#: block sizes small enough that seams, and the wrap past 1/1, fall inside small levels
SMALL_BLOCKS = [1, 2, 3, 7]


@settings(max_examples=150)
@given(level_and_interval(), st.integers(0, 1), st.integers(0, 9), st.sampled_from(SMALL_BLOCKS))
@example((3, (F(0), F(1))), 1, 1, 2)
@example((7, (F(1, 2), F(1))), 1, 9, 3)
def test_blocks_tile_the_window(case, before, after, block):
    # each block is the window's run at its offset, overlapping the next by
    # before + after, and a view of F(Q) unless it wraps past 1/1
    Q, interval = case
    if interval_count(Q, interval) == 0:
        return
    seq = farey_orbit(Q)
    w = whole_window(Q, interval, before, after)
    with mock.patch.object(farey, "_BLOCK", block):
        m, blocks = farey._blocks(Q, interval, before, after)
        blocks = list(blocks)
    assert [k for k, _ in blocks] == list(range(0, m, block))
    for k, b in blocks:
        assert len(b) == min(block, m - k) + before + after
        assert b.tolist() == w[k:k + len(b)].tolist()
        start = farey._index_range(seq, interval)[0] - before + k
        assert (b.base is seq.q) == (0 <= start % len(seq) <= len(seq) + 1 - len(b))


def excursion_min(a, b):
    return np.minimum(np.minimum(1 / a, 1 / b), a + b)


def excursion_max(a, b):
    return np.maximum(np.maximum(a, b), 1 / (a + b))


@settings(max_examples=100, deadline=None)
@given(level_and_interval(), st.sampled_from(SMALL_BLOCKS),
       st.lists(st.tuples(st.floats(0, 1), st.floats(0.5, 4)).map(sorted), min_size=1, max_size=5),
       st.floats(-1, 2), st.floats(-1, 2))
@example((7, (F(0), F(1))), 2, [(0.0, 4.0), (0.5, 2.0), (0.0, 3.0)], -1.0, 2.0)
@example((60, (F(1, 2), F(1))), 7, [(0.1, 1.5)], 0.5, 0.5)
def test_blocked_statistics_match_the_whole_window(case, block, box, s, t):
    Q, interval = case
    if interval_count(Q, interval) == 0:
        return
    h_default = h_spacing_proportion(Q, interval, box)
    with mock.patch.object(farey, "_BLOCK", block):
        whole = normalized_gaps_whole(Q, interval)
        m, edges, counts = farey._gap_histogram(Q, interval, -0.5, 3.0, 9)
        assert (m, counts.tolist()) == (len(whole), np.histogram(whole, bins=edges)[0].tolist())
        h = h_spacing_proportion(Q, interval, box)
        assert h == h_default == rolled_h_spacing(Q, interval, box)
        if Q >= 2:
            assert index_values(Q, interval).tolist() == index_values_whole(Q, interval).tolist()
        assert orbit_flow_period(Q) == Q * Q
        assert moment_sum(Q, interval, s, t) == pytest.approx(
            moment_sum_whole(Q, interval, s, t), rel=1e-14)
        for G in (excursion_min, excursion_max):
            assert empirical_integral(Q, interval, G) == pytest.approx(
                empirical_integral_whole(Q, interval, G), rel=1e-14)


@pytest.mark.parametrize("block", [farey._BLOCK, 7])
@pytest.mark.parametrize("call", [index_values, orbit_flow_period])
def test_a_corrupted_late_block_is_refused(monkeypatch, call, block):
    # F(300) has 27,398 fractions: the corrupted denominator lies past the
    # first block of either size, so every block must be checked
    seq = farey_orbit(300)
    q = seq.q.copy()
    q[len(seq) - 5] += 1
    bad = farey.FareySequence(300, q, seq.p)
    monkeypatch.setattr(farey, "farey_orbit", lambda Q: bad)
    monkeypatch.setattr(farey, "_BLOCK", block)
    with pytest.raises(RuntimeError):
        call(300)


def test_orbit_cache_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(farey, "_orbit_cache", {})
    # room for F(50) and F(70), whose p and q take equal bytes
    monkeypatch.setattr(farey, "_CACHE_BYTES", sum(2 * farey._farey_lanes(Q).q.nbytes
                                                   for Q in (50, 70)))
    seen = [farey_orbit(Q) for Q in (50, 60, 50, 70)]
    assert seen[0] is seen[2]
    assert list(farey._orbit_cache) == [50, 70]  # 60 was the least recently used
    again = farey_orbit(60)
    assert again is not seen[1]
    assert np.array_equal(again.q, seen[1].q) and np.array_equal(again.p, seen[1].p)
    assert list(farey._orbit_cache) == [60]
    # the level used last stays cached even when it alone exceeds the bound
    monkeypatch.setattr(farey, "_CACHE_BYTES", 1)
    assert farey_orbit(50) is farey_orbit(50)
    assert list(farey._orbit_cache) == [50]


def test_the_cache_evicts_before_building_the_next_level(monkeypatch):
    # room for F(1000) alone: it must leave before F(1001) is allocated
    monkeypatch.setattr(farey, "_orbit_cache", {})
    tracemalloc.start()  # before F(1000), so its arrays are traced until freed
    try:
        first = farey_orbit(1000).q.nbytes * 2
        monkeypatch.setattr(farey, "_CACHE_BYTES", first)
        tracemalloc.reset_peak()
        second = farey_orbit(1001).q.nbytes * 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(farey._orbit_cache) == [1001]
    assert peak < first + second


@pytest.mark.parametrize("call", [farey_cardinality, farey_orbit, interval_count])
def test_level_beyond_memory_is_refused(call):
    # the count's memo alone would take terabytes; nothing is allocated
    with pytest.raises(DomainError, match="physical memory"):
        call(2**70)


def _fake_memory(monkeypatch, nbytes):
    sysconf = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
    monkeypatch.setattr(os, "sysconf", sysconf.__getitem__)


def gcd_totient(q):
    """Oracle: phi(q) by counting the p <= q coprime to q."""
    return sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)


#: the running sums N(Q) of gcd-count totients, Q = 0..300
RUNNING_COUNTS = [0]
for _q in range(1, 301):
    RUNNING_COUNTS.append(RUNNING_COUNTS[-1] + gcd_totient(_q))


@settings(max_examples=100)
@given(st.integers(1, 300))
@example(1)
@example(300)
def test_count_matches_totient_sum_and_bruteforce(Q):
    assert farey_cardinality(Q) == RUNNING_COUNTS[Q] == len(farey_bruteforce(Q))


@settings(max_examples=200)
@given(st.integers(1, 3000))
@example(2)
@example(2999)  # primes
@example(2503)
@example(2048)  # prime powers
@example(2187)
@example(2401)
@example(2197)
@example(2809)
@example(2 * 3 * 5 * 7 * 11)  # many small primes
@example(2 * 1499)  # a large prime factor left after trial division
def test_totient_matches_gcd_count(q):
    assert totient(q) == gcd_totient(q)


@pytest.mark.parametrize("Q, n", [(10**4, 30397486), (10**6, 303963552392),
                                  (2 * 10**6, 1215854699278)])
def test_count_at_large_levels(Q, n):
    # recorded from a numpy totient sieve
    assert farey_cardinality(Q) == n


def test_count_memo_beyond_memory_is_refused(monkeypatch):
    # 2 isqrt(Q) + 1 memo entries: 19 for Q = 99, 21 for Q = 100
    _fake_memory(monkeypatch, farey._COUNT_ENTRY_BYTES * 19)
    assert farey_cardinality(99) == RUNNING_COUNTS[99]
    with pytest.raises(DomainError, match=r"count of F\(100\)"):
        farey_cardinality(100)


def test_level_is_refused_by_the_quadratic_bound_before_counting(monkeypatch):
    monkeypatch.setattr(farey, "_orbit_cache", {})

    def uncounted(Q):
        raise AssertionError(f"N({Q}) was computed")

    monkeypatch.setattr(farey, "farey_cardinality", uncounted)
    # F(300) is int16: 4 bytes a fraction
    _fake_memory(monkeypatch, 4 * (300 * 300 // 4 + 1) - 1)
    with pytest.raises(DomainError, match=r"F\(300\), with at least 22500 fractions"):
        farey_orbit(300)
    # memory for the bound alone: the exact count is asked for next
    _fake_memory(monkeypatch, 4 * (300 * 300 // 4 + 1))
    with pytest.raises(AssertionError, match=r"N\(300\) was computed"):
        farey_orbit(300)


def test_lanes_beyond_memory_are_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(farey, "_orbit_cache", {})
    n = farey_cardinality(300)
    _fake_memory(monkeypatch, 4 * (n + 1))  # int16: 4 bytes a fraction
    assert len(farey_orbit(300)) == n
    farey._orbit_cache.clear()
    _fake_memory(monkeypatch, 4 * (n + 1) - 1)
    with pytest.raises(DomainError, match=f"F\\(300\\), with {n} fractions"):
        farey_orbit(300)


@pytest.mark.parametrize("Q, size", [(1, 1), (62, 1), (63, 2), (16382, 2), (16383, 4),
                                     (2**30 - 2, 4), (2**30 - 1, 8)])
def test_itemsize_is_the_narrowest_signed_integer_holding_2q_plus_2(Q, size):
    assert farey._itemsize(Q) == size
    assert np.iinfo(f"i{size}").max >= 2 * Q + 2
    if size > 1:
        assert np.iinfo(f"i{size // 2}").max < 2 * Q + 2


@pytest.mark.parametrize("Q", [62, 63])
def test_levels_at_the_int8_boundary(Q):
    dtype = np.dtype("i1" if Q == 62 else "i2")
    seq, brute = farey._farey_lanes(Q), farey_bruteforce(Q)
    assert seq.q.dtype == seq.p.dtype == brute.q.dtype == brute.p.dtype == dtype
    assert seq.denominators.tolist() == brute.denominators.tolist()
    assert seq.numerators.tolist() == brute.numerators.tolist()
    assert orbit_flow_period(Q) == Q * Q  # 62^2 overflows int8


def test_flow_period_takes_determinants_past_the_level_dtype(monkeypatch):
    # 300 * 300 - 17 * 1439 = 65537: 1 once wrapped to int16, so only a check
    # in a wider integer refuses this pair
    bad = farey.FareySequence(300, np.array([300, 1439], dtype=np.int16),
                              np.array([17, 300], dtype=np.int16))
    monkeypatch.setattr(farey, "farey_orbit", lambda Q: bad)
    with pytest.raises(RuntimeError, match="determinant is not 1"):
        orbit_flow_period(300)


def _int64_level(Q):
    seq = farey_orbit(Q)
    return farey.FareySequence(Q, seq.q.astype(np.int64), seq.p.astype(np.int64))


@pytest.mark.parametrize("Q", [62, 63, 300])
@pytest.mark.parametrize("interval", [(0, 1), (F(1, 5), F(3, 7))])
def test_index_values_in_the_level_dtype(Q, interval):
    nu = index_values(Q, interval)
    assert nu.dtype == f"i{farey._itemsize(Q)}" and nu.max() <= 2 * Q
    q = np.append(_int64_level(Q).denominators, 1)  # gamma_{N+1} = 1/1
    qm = np.roll(q[:-1], 1)
    start, end = farey._index_range(farey_orbit(Q), interval)
    expected = ((qm + q[1:]) // q[:-1])[start:end]
    assert expected.dtype == np.int64 and nu.tolist() == expected.tolist()


@pytest.mark.parametrize("Q", [62, 63, 300])
def test_statistics_match_an_int64_copy_of_the_level(monkeypatch, Q):
    interval, box = (F(1, 5), F(3, 7)), [(0.2, 1.5), (0.1, 2.0)]

    def statistics():
        return (moment_sum(Q, interval, 1.5, -0.5), moment_sum(Q, interval, complex(0.5, 1), 2),
                h_spacing_proportion(Q, interval, box))

    narrow = statistics()
    wide = _int64_level(Q)
    monkeypatch.setattr(farey, "farey_orbit", lambda Q: wide)
    assert narrow == statistics()


def test_neighbor_identities():
    for Q in list(range(2, 121)) + [300]:
        seq = farey_orbit(Q)
        p, q = seq.numerators, seq.denominators
        pn, qn = np.roll(p, -1), np.roll(q, -1)
        pn[-1], qn[-1] = 1, 1  # gamma_{N+1} = 1/1
        # in int64: p q overflows the level's dtype, and a wrapped determinant
        # would only be checked modulo 2^8 or 2^16
        p, q, pn, qn = (a.astype(np.int64) for a in (p, q, pn, qn))
        assert np.all(pn * q - p * qn == 1)
        assert np.all(q + qn > Q)


def test_large_kappa_neighbor_structure():
    # a large index n >= 4r+2 forces kappa = 1 next door and kappa = 2 at
    # offsets 1 < |i| <= r, along every Farey orbit
    for Q in range(2, 301):
        q = farey_orbit(Q).denominators
        qm = np.roll(q, 1)
        kap = (Q + qm) // q  # kappa at orbit position associated with gamma_i
        n = len(kap)
        for j in np.nonzero(kap >= 6)[0]:
            r = (int(kap[j]) - 2) // 4
            assert kap[(j + 1) % n] == 1 and kap[(j - 1) % n] == 1
            for off in range(2, r + 1):
                assert kap[(j + off) % n] == 2
                assert kap[(j - off) % n] == 2


def test_index_values():
    for Q in list(range(2, 121)) + [200, 300]:
        assert np.array_equal(index_values(Q), index_values_via_kappa(Q))
    nu = index_values(1000)
    assert nu.max() <= 2000
    assert abs(nu.mean() - 3) < 1e-2


def test_index_distribution_matches_tile_masses():
    # equidistribution over tiles: freq(nu = k) -> m(Omega_k)
    from bczmap.measure import tile_measure

    nu = index_values(1000)
    n = len(nu)
    for k in (1, 2, 3, 4, 5, 10):
        freq = np.count_nonzero(nu == k) / n
        assert abs(freq - float(tile_measure(k))) < 1e-3


def test_index_interval_selection():
    # I = [1/4, 1/3] at Q = 5 selects exactly {1/4, 1/3} (closed endpoints)
    assert interval_count(5, (F(1, 4), F(1, 3))) == 2
    assert len(index_values(5, (F(1, 4), F(1, 3)))) == 2
    with pytest.raises(ValueError):
        index_values(1)


def test_interval_mask_huge_denominators():
    # exact selection survives bounds whose cross-products overflow int64
    eps = F(1, 10**17)
    assert interval_count(40, (F(1, 4) - eps, F(1, 4) + eps)) == 1
    assert interval_count(40, (F(1, 4) + eps, F(1, 3) - eps)) == \
        interval_count(40, (F(1, 4), F(1, 3))) - 2


def test_spacing_trivial_windows():
    assert spacing_proportion(200, (0, 1), 0, math.inf) == 1.0
    # normalized gaps never fall below 3|I|/pi^2
    assert spacing_proportion(200, (0, 1), 0, 3 / math.pi**2) == 0.0
    assert spacing_proportion(150, (F(1, 4), F(3, 4)), 0, 0.5 * 3 / math.pi**2) == 0.0


def test_spacing_matches_limit_q2000():
    assert abs(spacing_proportion(2000, (0, 1), 0, 1.0) - hall_cdf(1.0)) < 1e-2


def test_h_spacing_reduces_to_spacing():
    for win in [(0.0, 1.0), (0.5, 2.0)]:
        a = h_spacing_proportion(500, (0, 1), [win])
        b = spacing_proportion(500, (0, 1), *win)
        assert a == b


def test_h_spacing_trivial_box():
    assert h_spacing_proportion(300, (0, 1), [(0, math.inf)] * 3) == 1.0


def test_h_spacing_pair_box_vs_grid_quadrature():
    # mass of {R in B1, R o T in B2} by midpoint grid, B = (0, 1) rescaled
    scale = math.pi**2 / 3

    def pair_indicator(A, B):
        R1 = 1.0 / (A * B)
        kap = np.floor((1.0 + A) / B)
        B2 = kap * B - A
        with np.errstate(divide="ignore", invalid="ignore"):
            R2 = 1.0 / (B * B2)
        return (R1 < scale) & (B2 > 0) & (R2 < scale)

    expected = grid_measure(pair_indicator, n=4000)
    got = h_spacing_proportion(2000, (0, 1), [(0.0, 1.0), (0.0, 1.0)])
    assert abs(got - expected) < 2e-2


def test_moment_sum_telescoping():
    for Q in (50, 400):
        v = moment_sum(Q, (0, 1), -1, -1)
        assert v == pytest.approx(Q * Q / farey_cardinality(Q), rel=1e-12)


def test_moment_sums_q1000():
    assert abs(moment_sum(1000, (0, 1), 1, 0) - 2 / 3) < 5e-3
    assert abs(moment_sum(1000, (0, 1), -1, 0) - 2) < 1e-2


def test_moment_sum_complex():
    v = moment_sum(300, (0, 1), complex(1, 0), complex(0, 0))
    assert v.imag == pytest.approx(0.0)
    assert v.real == pytest.approx(moment_sum(300, (0, 1), 1, 0))


@pytest.mark.parametrize("block", [farey._BLOCK, 7])
@pytest.mark.parametrize("s, t", [(complex(0.7, 2), complex(-0.3, -1.5)), (complex(-1, 0.5), 1.3),
                                  (0.5, complex(0, -3))])
def test_complex_moments_match_exp_log(block, s, t):
    # the power tables against exp(s log x + t log y) on the whole window
    interval = (F(1, 3), F(5, 7))
    with mock.patch.object(farey, "_BLOCK", block):
        v = moment_sum(300, interval, s, t)
    assert isinstance(v, complex)
    assert v == pytest.approx(empirical_integral_whole(
        300, interval, lambda x, y: np.exp(s * np.log(x) + t * np.log(y))), rel=1e-13)


def test_moment_sum_takes_a_fraction_exponent():
    assert moment_sum(300, (0, 1), F(1, 2), -1) == moment_sum(300, (0, 1), 0.5, -1.0)


@pytest.mark.parametrize("block", SMALL_BLOCKS + [farey._BLOCK])
@pytest.mark.parametrize("Q, interval", [
    (1, (0, 1)), (7, (0, 1)), (7, (F(0), F(0))), (7, (F(0), F(2, 5))), (7, (F(3, 7), F(1))),
    (60, (0.0, 1.0)), (60, (F(1, 3), F(1))), (60, (F(0), F(1, 60))),
])
def test_empirical_measure_matches_the_whole_window(Q, interval, block):
    # rho_{Q,I} is its size and its integrals; its atoms are read off farey_orbit
    w = whole_window(Q, interval)
    assert interval_count(Q, interval) == len(w) - 1
    with mock.patch.object(farey, "_BLOCK", block):
        for G in (excursion_min, excursion_max):
            assert empirical_integral(Q, interval, G) == pytest.approx(
                empirical_integral_whole(Q, interval, G), rel=1e-14)


def test_empirical_integral():
    assert empirical_integral(500, (0, 1), lambda a, b: np.ones_like(a)) == 1.0
    mx = empirical_integral(
        1000, (0, 1), lambda a, b: np.maximum(np.maximum(a, b), 1 / (a + b))
    )
    mn = empirical_integral(
        1000, (0, 1), lambda a, b: np.minimum(np.minimum(1 / a, 1 / b), a + b)
    )
    assert abs(mx - MAX_PEAK_INTEGRAL) < 1e-2
    assert abs(mn - MIN_PEAK_INTEGRAL) < 1e-2


@pytest.mark.parametrize("block", [farey._BLOCK, 7])
def test_a_scalar_integrand_counts_for_every_point(block):
    with mock.patch.object(farey, "_BLOCK", block):
        assert empirical_integral(300, (0, 1), lambda a, b: 2.5) == pytest.approx(2.5, rel=1e-15)
        assert empirical_integral(300, (F(1, 3), F(1, 2)), lambda a, b: 1j) == pytest.approx(1j)


def test_counting_bound():
    for Q in (10, 100, 500):
        assert counting_bound_check(Q, (0, 1))
    assert counting_bound_check(100, (F(3, 10), F(31, 100)))
    n = interval_count(2000, (0, 1))
    assert abs(n / (3 / math.pi**2 * 2000**2) - 1) < 1e-2


def test_counting_bound_empty_selection():
    with pytest.raises(ValueError):
        counting_bound_check(3, (F(2, 7), F(3, 10)))  # no level-3 fraction inside


def test_spacing_empty_selection():
    with pytest.raises(ValueError):
        spacing_proportion(3, (F(2, 7), F(3, 10)), 0, 1)
