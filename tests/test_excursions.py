import math
import random
import tracemalloc
import warnings
from fractions import Fraction as F
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bczmap import excursions
from bczmap.core import (DomainError, _int_orbit, _lane_lengths, _orbit, bcz_step, kappa,
                         orbit_trace, roof)
from bczmap.excursions import (
    NAMED_STARTS,
    ExcursionTrace,
    excursion_averages,
    excursion_trace,
    handoff,
    named_start,
    peak_length,
)
from bczmap.lattices import UnimodularBasis
from bczmap.measure import MAX_PEAK_INTEGRAL, MIN_PEAK_INTEGRAL

from conftest import random_section_point
from oracles import (QUADRATIC_STARTS, _handoff, excursion_means, quadratic_orbit,
                     shortest_vector_length, vector_length_profile)


def test_profile_basic():
    assert vector_length_profile((1, 0), 0) == 1
    # the flat interval has radius 1 around the slope, height |x|
    assert vector_length_profile((0.5, 1.0), 2.0) == 0.5
    assert vector_length_profile((0.5, 1.0), 1.0) == 0.5
    assert vector_length_profile((0.5, 1.0), 3.0) == 0.5
    assert vector_length_profile((0.5, 1.0), 0.5) == 0.75
    assert vector_length_profile((0.5, 1.0), 5.0) == 1.5
    with pytest.raises(ValueError):
        vector_length_profile((0, 1), 0)


def test_profile_piecewise_slopes():
    x, y = 0.25, 2.0
    sigma = y / x
    for s0 in (sigma - 3.0, sigma + 3.0):
        d = (vector_length_profile((x, y), s0 + 1e-6) - vector_length_profile((x, y), s0)) / 1e-6
        assert abs(abs(d) - x) < 1e-4


def test_peak_examples():
    assert peak_length((1, 1)) == 1
    assert peak_length((F(6, 10), F(6, 10))) == F(5, 6)
    assert peak_length((F(9, 10), F(2, 10))) == F(10, 11)


def _grid_peak(p, steps=10**4):
    """Max over the sojourn of the two-vector length minimum, on a dense grid."""
    a, b = float(p[0]), float(p[1])
    r = 1.0 / (a * b)
    best_v, best_s = -1.0, 0.0
    for i in range(steps + 1):
        s = r * i / steps
        v = min(vector_length_profile((a, 0.0), s), vector_length_profile((b, 1.0 / a), s))
        if v > best_v:
            best_v, best_s = v, s
    return best_s, best_v


# one point for each strict ordering of (a, b, 1/(a+b))
ORDERING_CASES = [
    (F(55, 100), F(60, 100)),  # a < b < 1/(a+b)
    (F(60, 100), F(55, 100)),  # b < a < 1/(a+b)
    (F(55, 100), F(95, 100)),  # a < 1/(a+b) < b
    (F(95, 100), F(55, 100)),  # b < 1/(a+b) < a
    (F(85, 100), F(90, 100)),  # 1/(a+b) < a < b
    (F(90, 100), F(85, 100)),  # 1/(a+b) < b < a
]


@pytest.mark.parametrize("p", ORDERING_CASES)
def test_handoff_against_grid(p):
    time, peak = handoff(p)
    assert peak == peak_length(p)
    assert 0 < time < roof(p)
    _, gv = _grid_peak(p)
    assert abs(float(peak) - gv) < 1e-3
    # the returned time attains the peak (the maximizer may be a flat stretch,
    # so the time itself is only pinned up to that flat)
    a, b = (float(v) for v in p)
    at_time = min(
        vector_length_profile((a, 0.0), float(time)),
        vector_length_profile((b, 1.0 / a), float(time)),
    )
    assert at_time == pytest.approx(float(peak), abs=1e-12)


# the fixed point, and the ties a = b, b = 1/(a+b) and a = 1/(a+b)
TIE_CASES = [(F(1), F(1)), (F(9, 10), F(9, 10)), (F(11, 30), F(5, 6)), (F(5, 6), F(11, 30))]


@pytest.mark.parametrize("p", ORDERING_CASES + TIE_CASES)
def test_handoff_matches_oracle(p):
    # exactly for an exact point, and to rounding for its float image, whose
    # time the oracle writes (1/a - a)/b where handoff divides 1 - a^2 by ab
    got = handoff(p)
    assert got == _handoff(*p) and all(isinstance(v, F) for v in got)
    fp = (float(p[0]), float(p[1]))
    assert handoff(fp) == pytest.approx(_handoff(*fp), rel=1e-12, abs=1e-12)


def test_handoff_peak_matches_max_random():
    rng = random.Random(30)
    for _ in range(10**4):
        p = random_section_point(rng)
        _, peak = handoff(p)
        a, b = p
        assert peak == max(a, b, F(1) / (a + b))


def test_handoff_fixed_point_degenerate():
    time, peak = handoff((1, 1))
    assert peak == 1
    assert 0 <= time <= 1


def test_peak_bounds_full_lattice_minimum():
    # between consecutive hits the true shortest length never exceeds the
    # hand-off peak, and attains it at the hand-off time
    rng = random.Random(31)
    for _ in range(8):
        p = random_section_point(rng, max_den=40)
        a, b = float(p[0]), float(p[1])
        basis = UnimodularBasis(a, 0.0, b, 1.0 / a)
        r = 1.0 / (a * b)
        t_hand, peak = (float(v) for v in handoff(p))
        grid_max = -1.0
        for i in range(1, 400):
            s = r * i / 400
            h_basis = UnimodularBasis(a, -s * a, b, 1.0 / a - s * b)
            ln = shortest_vector_length(h_basis)
            assert ln <= peak + 1e-9
            grid_max = max(grid_max, ln)
        assert grid_max == pytest.approx(peak, abs=2e-2)
        at_hand = shortest_vector_length(
            UnimodularBasis(a, -t_hand * a, b, 1.0 / a - t_hand * b))
        assert at_hand == pytest.approx(peak, abs=1e-9)


def test_trace_minima_gaps_are_roofs():
    p = (F(1, 7), 1)
    tr = excursion_trace(p, 20)
    assert isinstance(tr, ExcursionTrace)
    assert tr.count == 20
    q = p
    for i in range(19):
        gap = tr.minima_times[i + 1] - tr.minima_times[i]
        assert gap == roof(q)
        assert gap >= 1
        assert tr.minima_lengths[i] == q[0]
        q = bcz_step(q)
    for mt, xt in zip(tr.minima_times, tr.maxima_times):
        assert mt <= xt


@st.composite
def exact_section_points(draw, max_den=60):
    da = draw(st.integers(1, max_den))
    a = F(draw(st.integers(1, da)), da)
    db = draw(st.integers(1, max_den))
    return a, F(draw(st.integers(math.floor((1 - a) * db) + 1, db)), db)


# denominators <= 12 traced for up to 400 visits run past their coordinate
# range, so the kernel's memo of built Fractions is hit there
@example((TIE_CASES[0], 25))
@example((TIE_CASES[1], 25))
@example((TIE_CASES[2], 25))
@example((TIE_CASES[3], 25))
@given(st.one_of(st.tuples(exact_section_points(), st.just(25)),
                 st.tuples(exact_section_points(max_den=12), st.integers(1, 400))))
def test_trace_handoff_matches_oracle(start_n):
    # the integer hand-off equals _handoff on the visited points, exactly
    # for an exact start and to rounding for its float image
    p, n = start_n
    for start, exact in ((p, True), ((float(p[0]), float(p[1])), False)):
        tr = excursion_trace(start, n + 1)
        for i in range(n):
            a, b = tr.minima_lengths[i], tr.minima_lengths[i + 1]
            dt, peak = _handoff(a, b)
            got = (tr.maxima_times[i], tr.maxima_lengths[i])
            want = (tr.minima_times[i] + dt, peak)
            if exact:
                assert got == want and all(isinstance(v, F) for v in got)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        # past the coordinate range every coordinate the kernel built
        # repeats as the one object built first
        if exact and n + 1 > math.lcm(p[0].denominator, p[1].denominator):
            first = {}
            assert all(first.setdefault(v, v) is v for v in tr.minima_lengths[1:])


@st.composite
def float_section_points(draw):
    a = draw(st.floats(0.01, 1.0))
    return a, draw(st.floats(1.0 - a, 1.0, exclude_min=True))


# a start whose float step lands one ulp above the section (see below)
REPAIR_START = (0.8305930343327381, 0.6101976781109127)


@settings(deadline=None)
@given(st.one_of(st.just(REPAIR_START), st.sampled_from(sorted(NAMED_STARTS.values())),
                 float_section_points(), exact_section_points()),
       st.integers(1, 1000), st.integers(0, 40))
def test_averages_match_the_exact_rational_orbit(start, n, record_every):
    # the scalar route against Fraction points stepped by bcz_step
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an exact start warns of its rational slope
        got = excursion_averages(start, n, record_every=record_every)
    means, history = excursion_means(start, n, record_every)
    assert got.steps == n and got.repairs == 0
    assert list(got[:4]) == pytest.approx(means, rel=1e-13)
    assert len(got.history) == len(history)
    for row, want in zip(got.history, history):
        assert row == pytest.approx(want, rel=1e-13)


@settings(max_examples=40, deadline=None)
# n on both sides of the crossover
@example(NAMED_STARTS["golden"], excursions._LANES_FROM - 1, 0)
@example(NAMED_STARTS["sqrt2"], excursions._LANES_FROM, 12_345)
# the first return, 2^20, swallows every seed time of the first batch
@example((1.0, 2.0**-20), 1000, 7)
@given(st.one_of(st.sampled_from(sorted(NAMED_STARTS.values())), float_section_points()),
       st.integers(1, 20_000), st.sampled_from([0, 1, 2, 37, 500, 4999]))
def test_lanes_match_the_scalar_loop(start, n, record_every):
    with mock.patch.object(excursions, "_LANES_FROM", n + 1):
        scalar = excursion_averages(start, n, record_every=record_every)
    with mock.patch.object(excursions, "_LANES_FROM", 1), \
            mock.patch.object(excursions, "_lane_sums", wraps=excursions._lane_sums) as lanes:
        got = excursion_averages(start, n, record_every=record_every)
    # other starts may spell a width past int64 or a short period, which run no lanes
    assert lanes.called or start not in NAMED_STARTS.values()
    assert list(got[:4]) == pytest.approx(list(scalar[:4]), rel=1e-13)
    assert len(got.history) == len(scalar.history)
    for row, want in zip(got.history, scalar.history):
        assert row == pytest.approx(want, rel=1e-13)


def test_a_repeated_seed_raises_from_the_walker_bound():
    # lane 1 walks from a seed to itself, which its orbit, of period N(10^9 + 7),
    # revisits only far past 50 steps; lane 0 arrives after one step
    d = 10**9 + 7
    (x0, y0, _), (x1, y1, _) = islice(_int_orbit(3, d, d), 2)
    with pytest.raises(RuntimeError, match="1 lanes .* did not reach their next seed in 50 steps"):
        _lane_lengths(d, np.array([x0, x1, x1]), np.array([y0, y1, y1]), 50)


@pytest.mark.parametrize("e, lanes", [(62, False), (61, True)])
def test_widths_past_int64_lanes_run_the_scalar_loop(monkeypatch, e, lanes):
    # the orbit of (1, (2^e - 1)/2^e) has period N(2^e), far past n; at
    # d = 2^62 a lane's k y <= 2 d no longer fits int64 (`core._itemsize`)
    routes = []
    monkeypatch.setattr(excursions, "_lane_sums",
                        lambda *a: routes.append("lanes") or ([1.0] * 4, []))
    monkeypatch.setattr(excursions, "_scalar_sums",
                        lambda *a: routes.append("scalar") or ([1.0] * 4, []))
    with pytest.warns(UserWarning, match="rational slope"):
        excursion_averages((1, F(2**e - 1, 2**e)), excursions._LANES_FROM)
    assert routes == ["lanes" if lanes else "scalar"]


def test_lanes_history_stays_within_the_row_budget():
    # `cli._check_rows` assumes at most cli.ROW_BYTES a row
    from bczmap import cli
    n = 20_000
    with mock.patch.object(excursions, "_LANES_FROM", 1), \
            mock.patch.object(excursions, "_lane_sums", wraps=excursions._lane_sums) as lanes:
        excursion_averages(named_start("golden"), 1000, record_every=1)  # imports numpy, lattices
        tracemalloc.start()
        try:
            res = excursion_averages(named_start("golden"), n, record_every=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert lanes.call_count == 2 and len(res.history) == n
    assert peak <= cli.ROW_BYTES * n


@pytest.mark.parametrize("record_every", [1, 7])
def test_dense_rows_match_the_exact_orbit_across_chunks(record_every):
    # rows cut the partial sums inside a chunk and at its end alike
    n = 3 * excursions._CHUNK + 5
    got = excursion_averages(named_start("sqrt2"), n, record_every=record_every)
    means, history = excursion_means(named_start("sqrt2"), n, record_every)
    assert list(got[:4]) == pytest.approx(means, rel=1e-14)
    assert len(got.history) == len(history)
    for row, want in zip(got.history, history):
        assert row == pytest.approx(want, rel=1e-14)


def test_lanes_hold_memory_to_the_lanes_and_rows():
    excursion_averages(named_start("golden"), excursions._LANES_FROM)  # imports numpy and lattices
    tracemalloc.start()
    try:
        excursion_averages(named_start("golden"), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # an n-long float64 array alone is 8 MB


def test_excursion_averages_smoke():
    res = excursion_averages(named_start("golden"), 20000)
    assert abs(res.alpha_mean - 2.0) < 0.1
    assert abs(res.length_mean - 2 / 3) < 0.05
    assert abs(res.peak_reciprocal_mean - MIN_PEAK_INTEGRAL) < 0.05
    assert abs(res.peak_mean - MAX_PEAK_INTEGRAL) < 0.05
    assert res.steps == 20000


@pytest.mark.parametrize("name", sorted(QUADRATIC_STARTS))
def test_float_orbit_follows_the_exact_orbit(name):
    n = 10**5
    indices, points = quadratic_orbit(name, n)
    # orbit_trace runs the float step and its repair
    assert orbit_trace(named_start(name), n).indices == indices
    # the orbit of the dyadic rational fl(beta) has the same itinerary, and
    # its means are about 1e-11 from the exact ones: fl(beta)'s own rounding
    exact_start = tuple(map(F, named_start(name)))
    assert [k for _, (_, _, k) in zip(range(n), _orbit(exact_start)[2])] == indices
    got = excursion_averages(named_start(name), n)
    assert got.repairs == 0
    peaks = [max(a, b, 1 / (a + b)) for a, b in points]
    means = [math.fsum(v) / n for v in ([1 / a for a, _ in points], [a for a, _ in points],
                                        [1 / m for m in peaks], peaks)]
    assert list(got[:4]) == pytest.approx(means, rel=1e-10)


def test_excursion_averages_rational_start_warns():
    with pytest.warns(UserWarning):
        excursion_averages((F(1, 7), F(1)), 100)


def test_excursion_history():
    res = excursion_averages(named_start("sqrt2"), 1000, record_every=500)
    assert [h[0] for h in res.history] == [500, 1000]
    assert res.history[-1][1] == pytest.approx(res.alpha_mean)


def test_excursion_averages_drift_repairs():
    # in floats (1 + a)/b rounds to exactly 3 at this start, so the float step
    # of orbit_trace lands one ulp above the section and is clamped back; the
    # exact index of the point its doubles spell is 2, and the averages take it
    start = REPAIR_START
    trace = orbit_trace(start, 2)
    assert trace.indices[0] == 3 and trace.points[1] == (start[1], 1.0)
    assert kappa(tuple(map(F, start))) == 2
    for n in (1, 2, 3):
        got = excursion_averages(start, n)
        assert got.repairs == 0
        assert list(got[:4]) == pytest.approx(excursion_means(start, n)[0], rel=1e-15)
    assert excursion_averages((0.9, 0.1), 3).repairs == 0


@pytest.mark.parametrize("call", [
    lambda: excursion_averages(named_start("golden"), 0),
    lambda: excursion_averages(named_start("golden"), -3),
    lambda: excursion_averages(named_start("golden"), 7, record_every=-3),
    lambda: excursion_averages((0.3, 0.4), 5),  # start outside the section
    lambda: excursion_trace((F(1, 2), F(7, 10)), -1),
], ids=["averages n=0", "averages n<0", "averages record<0", "averages outside", "trace n<0"])
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_named_start_validation():
    with pytest.raises(ValueError):
        named_start("cube")
