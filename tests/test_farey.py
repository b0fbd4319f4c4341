import math
import os
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    normalized_gaps,
    orbit_flow_period,
    spacing_proportion,
    totient,
)
from bczmap.measure import MAX_PEAK_INTEGRAL, MIN_PEAK_INTEGRAL, hall_cdf

from oracles import grid_measure, index_values_via_kappa

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
    lambda: normalized_gaps(5, (F(3, 4), F(1, 4))),
    lambda: normalized_gaps(5, (0, math.inf)),
    lambda: empirical_integral(3, (F(2, 7), F(3, 10)), lambda a, b: a),  # empty selection
    lambda: moment_sum(5, (0, 1), complex(1, math.nan), 1),
], ids=["orbit Q=0", "cardinality Q<0", "index Q=1", "reversed interval", "infinite interval",
        "empty selection", "non-finite exponent"])
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
    if Q >= 2:
        assert index_values(Q, (lo, hi)).tolist() == index_values(Q)[inside].tolist()


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
    expected = np.take(seq.denominators, range(start - before, end + after), mode="wrap")
    w = farey._window(Q, interval, before, after, allow_empty=True)
    assert w.dtype == np.int64 and w.tolist() == expected.tolist()
    if start == end:
        with pytest.raises(DomainError, match=f"no Farey fraction of level {Q}"):
            farey._window(Q, interval, before, after)


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
@given(level_and_interval(), st.lists(st.tuples(st.floats(0, 1), st.floats(0.5, 4)),
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


@pytest.mark.parametrize("call", [farey_cardinality, farey_orbit, interval_count])
def test_level_beyond_memory_is_refused(call):
    # the totients alone would take 2^73 bytes; numpy is never asked for them
    with pytest.raises(DomainError, match="physical memory"):
        call(2**70)


def _fake_memory(monkeypatch, nbytes):
    sysconf = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
    monkeypatch.setattr(os, "sysconf", sysconf.__getitem__)


def test_totients_beyond_memory_are_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(farey, "_totients_upto", np.array([0, 1], dtype=np.int64))
    _fake_memory(monkeypatch, 8 * 1000)
    assert farey_cardinality(999) == sum(totient(q) for q in range(1, 1000))
    with pytest.raises(DomainError, match="totients up to 1000"):
        farey_cardinality(1000)
    assert len(farey._totients_upto) == 1000


def test_totient_table_grows_geometrically(monkeypatch):
    monkeypatch.setattr(farey, "_totients_upto", np.array([0, 1], dtype=np.int64))
    totient(3000)
    once = farey._totients_upto[:3001].copy()
    monkeypatch.setattr(farey, "_totients_upto", np.array([0, 1], dtype=np.int64))
    sieves = []
    check = farey._check_memory
    monkeypatch.setattr(farey, "_check_memory",
                        lambda nbytes, what: sieves.append(what) or check(nbytes, what))
    assert [totient(q) for q in range(3001)] == once.tolist()
    assert len(sieves) == 11  # tables of 4, 8, ..., 4096 entries


def test_totient_request_that_fits_is_served_when_doubling_would_not(monkeypatch):
    monkeypatch.setattr(farey, "_totients_upto", np.array([0, 1], dtype=np.int64))
    farey_cardinality(599)
    _fake_memory(monkeypatch, 8 * 1000)
    assert totient(999) == 648
    assert 1000 <= len(farey._totients_upto) < 1200
    with pytest.raises(DomainError, match="totients up to 1000"):
        totient(1000)


def test_lanes_beyond_memory_are_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(farey, "_orbit_cache", {})
    n = farey_cardinality(300)
    _fake_memory(monkeypatch, 16 * (n + 1))
    assert len(farey_orbit(300)) == n
    farey._orbit_cache.clear()
    _fake_memory(monkeypatch, 16 * (n + 1) - 1)
    with pytest.raises(DomainError, match=f"F\\(300\\), with {n} fractions"):
        farey_orbit(300)


def test_neighbor_identities():
    for Q in list(range(2, 121)) + [300]:
        seq = farey_orbit(Q)
        p, q = seq.numerators, seq.denominators
        pn, qn = np.roll(p, -1), np.roll(q, -1)
        pn[-1], qn[-1] = 1, 1  # gamma_{N+1} = 1/1
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


def test_empirical_measure_support():
    from bczmap.farey import empirical_measure
    from bczmap.core import in_section

    m = empirical_measure(40, (F(1, 4), F(1, 2)))
    assert len(m) == interval_count(40, (F(1, 4), F(1, 2)))
    assert len(m) * m.weight == pytest.approx(1.0)
    pts = m.support()
    assert all(in_section(p) for p in pts)
    # support points are genuine orbit points: denominators q_i, q_{i+1}
    assert pts[0][0].denominator <= 40


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
