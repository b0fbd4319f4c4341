import random
from fractions import Fraction as F

import pytest

from bczmap.core import DriftError, bcz_step, roof
from bczmap.excursions import (
    ExcursionTrace,
    excursion_averages,
    excursion_trace,
    handoff,
    named_start,
    peak_length,
    vector_length_profile,
)
from bczmap.lattices import UnimodularBasis, shortest_vector_length
from bczmap.measure import MAX_PEAK_INTEGRAL, MIN_PEAK_INTEGRAL

from conftest import random_section_point


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


def test_excursion_averages_smoke():
    res = excursion_averages(named_start("golden"), 20000)
    assert abs(res.alpha_mean - 2.0) < 0.1
    assert abs(res.length_mean - 2 / 3) < 0.05
    assert abs(res.peak_reciprocal_mean - MIN_PEAK_INTEGRAL) < 0.05
    assert abs(res.peak_mean - MAX_PEAK_INTEGRAL) < 0.05
    assert res.steps == 20000


def test_excursion_averages_rational_start_warns():
    with pytest.warns(UserWarning):
        excursion_averages((F(1, 7), F(1)), 100)


def test_excursion_history():
    res = excursion_averages(named_start("sqrt2"), 1000, record_every=500)
    assert [h[0] for h in res.history] == [500, 1000]
    assert res.history[-1][1] == pytest.approx(res.alpha_mean)


def test_excursion_averages_drift_repairs():
    # (1 + a)/b rounds to exactly 3 at this start, so the first step lands
    # one ulp above the section and is clamped back; the step after the n-th
    # visit is taken too, so even n = 1 reports the repair
    start = (0.8305930343327381, 0.6101976781109127)
    for n in (1, 2, 3):
        assert excursion_averages(start, n).repairs == 1
    with pytest.raises(DriftError, match="at step 1"):
        excursion_averages(start, 1, max_repairs=0)


def test_named_start_validation():
    with pytest.raises(ValueError):
        named_start("cube")
