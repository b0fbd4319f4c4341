import math
import random
from fractions import Fraction as F
from numbers import Number

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bczmap.core import (
    DRIFT_TOL,
    DomainError,
    DriftError,
    IntMatrix2,
    _orbit,
    _reproject,
    bcz_step,
    check_section,
    cocycle,
    in_section,
    kappa,
    orbit_trace,
    reduce_to_section,
    roof,
    scale_point,
    step_matrix,
    t_bcz_step,
    t_kappa,
    t_roof,
    tile_matrix,
    to_upper_half_plane,
    verify_return_identity,
)
from bczmap.excursions import excursion_trace, handoff
from bczmap.lattices import (UnimodularBasis, first_section_hit,
                             shortest_vertical_length, slope_gaps_via_bcz)

from conftest import random_section_point, random_rational
from oracles import narrow_embed, narrow_first_return, tile_contains


def test_kappa_examples():
    assert kappa((1, 1)) == 2
    assert kappa((F(1, 5), 1)) == 1
    # the formula value at a+b just above the boundary; (3/4, 1/4) itself
    # sits on the excluded line a+b = 1
    assert kappa((F(4, 5), F(1, 4))) == 7


def test_kappa_boundary_b_equal_one():
    # floor(1+a) on the top edge: 1 for a < 1, 2 at the corner
    assert kappa((F(99, 100), 1)) == 1
    assert kappa((1, 1)) == 2


def test_domain_errors():
    for p in [(F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)), (0, F(1, 2)), (F(3, 2), 1), (1, 0)]:
        with pytest.raises(DomainError):
            kappa(p)
    with pytest.raises(DomainError):
        roof((0.2, 0.3))


@pytest.mark.parametrize("call", [
    lambda: orbit_trace((F(1, 2), F(7, 10)), -3),
    lambda: cocycle((F(1, 2), F(7, 10)), 0),
    lambda: verify_return_identity((1.0, 0.6)),
], ids=["orbit_trace n<0", "cocycle n<1", "return identity in floats"])
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_bcz_step_examples():
    for a in (F(51, 100), F(2, 3), F(9, 10), F(1)):
        assert bcz_step((a, a)) == (a, a)
    assert bcz_step((F(1, 5), 1)) == (1, F(4, 5))
    assert bcz_step((1, F(4, 5))) == (F(4, 5), F(3, 5))


def test_bcz_closure_random():
    rng = random.Random(1)
    for _ in range(10**5):
        p = random_section_point(rng, max_den=10**4)
        assert in_section(bcz_step(p))


def test_roof_examples():
    assert roof((1, 1)) == 1
    assert roof((F(1, 5), 1)) == 5
    assert roof((F(1, 2), F(3, 4))) == F(8, 3)


def test_roof_lower_bound():
    rng = random.Random(2)
    for _ in range(2000):
        p = random_section_point(rng)
        r = roof(p)
        assert r >= 1
        assert (r == 1) == (p == (1, 1))


def test_step_matrix():
    a2 = step_matrix((F(7, 10), F(7, 10)))
    assert a2.rows() == ((0, 1), (-1, 2))
    assert step_matrix((F(1, 5), 1)).rows() == ((0, 1), (-1, 1))
    rng = random.Random(3)
    for _ in range(500):
        p = random_section_point(rng)
        m = step_matrix(p)
        assert m.det() == 1
        assert m.trace() == kappa(p)
        assert m.act_on_point(p) == bcz_step(p)


def test_cocycle():
    p = (F(1, 5), 1)
    assert cocycle(p, 1) == step_matrix(p)
    assert cocycle((F(3, 4), F(3, 4)), 3).rows() == ((-2, 3), (-3, 4))
    m = cocycle(p, 10)
    assert m.trace() == 2 and m != IntMatrix2(1, 0, 0, 1)


def test_cocycle_consistency_long():
    rng = random.Random(4)
    for _ in range(3):
        p = random_section_point(rng, max_den=50)
        q = p
        for _ in range(1000):
            q = bcz_step(q)
        assert cocycle(p, 1000).act_on_point(p) == q


def test_matrix_det_validation():
    with pytest.raises(ValueError):
        IntMatrix2(1, 0, 0, 2)


def test_reduce_to_section():
    assert reduce_to_section(1, 1) == ((1, 1), 0)
    assert reduce_to_section(F(1, 2), F(1, 4)) == ((F(1, 2), F(3, 4)), 1)
    assert reduce_to_section(F(1, 2), F(-3, 4)) == ((F(1, 2), F(3, 4)), 3)
    # b_raw = 0 is allowed
    (a, b), shift = reduce_to_section(F(2, 5), 0)
    assert b == shift * a and 1 - a < b <= 1


@given(st.floats(min_value=5e-324, max_value=1e300), st.floats(5e-324, 1.0),
       st.floats(allow_nan=False, allow_infinity=False))
@example(width=0.25, share=0.2, b_raw=-0.45)  # a = 0.05: b lies on a tile edge
@example(width=1.0, share=1e-300, b_raw=0.5)
@example(width=1.0, share=0.3, b_raw=1e17)
def test_float_reduction_is_the_rounded_exact_reduction(width, share, b_raw):
    a = max(width * share, 5e-324)
    (a2, b), shift = reduce_to_section(a, b_raw, width)
    (_, exact_b), exact_shift = reduce_to_section(F(a), F(b_raw), F(width))
    assert shift == exact_shift and type(b) is float and b == float(exact_b)
    assert a2 == a and exact_b == shift * F(a) + F(b_raw)
    assert F(width) - F(a) < exact_b <= F(width)


def test_reduce_to_section_refuses_non_finite_input():
    for args in [(0.5, math.inf), (0.5, math.nan), (0.5, 0.5, math.inf), (0, 1), (2, 1)]:
        with pytest.raises(DomainError):
            reduce_to_section(*args)


def test_reduce_to_section_postcondition_random():
    rng = random.Random(5)
    for _ in range(10**4):
        da = rng.randint(1, 1000)
        a = F(rng.randint(1, da), da)
        b_raw = F(rng.randint(-5000, 5000), rng.randint(1, 1000))
        (a2, b), shift = reduce_to_section(a, b_raw)
        assert a2 == a
        assert b == shift * a + b_raw
        assert 1 - a < b <= 1


def test_return_identity():
    assert verify_return_identity((1, 1))
    assert verify_return_identity((F(1, 5), 1))
    rng = random.Random(6)
    for _ in range(100):
        assert verify_return_identity(random_section_point(rng))


def test_t_bcz_reduces_to_bcz():
    rng = random.Random(7)
    for _ in range(200):
        p = random_section_point(rng)
        assert t_bcz_step(p, 1) == bcz_step(p)


def test_t_bcz_example():
    assert scale_point((F(1, 5), 1), 2) == (F(2, 5), 2)
    assert t_bcz_step((F(2, 5), 2), 2) == (2, F(8, 5))
    assert scale_point(bcz_step((F(1, 5), 1)), 2) == (2, F(8, 5))


def test_scaling_conjugacy_random():
    rng = random.Random(8)
    for _ in range(100):
        p = random_section_point(rng)
        t = random_rational(rng, F(0), F(4))
        left = t_bcz_step(scale_point(p, t), t)
        right = scale_point(bcz_step(p), t)
        assert left == right


def test_t_roof_scaling():
    rng = random.Random(9)
    for _ in range(200):
        p = random_section_point(rng)
        t = random_rational(rng, F(0), F(4))
        assert t_roof(scale_point(p, t), t) == roof(p) / (t * t)


def test_narrow_conjugacy():
    # the strip identification carries the first-return map on {a <= t} to
    # the width-t return map
    rng = random.Random(10)
    for _ in range(50):
        t = random_rational(rng, F(1, 4), F(9, 10), max_den=50)
        while True:
            p = random_section_point(rng, max_den=100)
            if p[0] <= t:
                break
        left = t_bcz_step(narrow_embed(p, t), t)
        right = narrow_embed(narrow_first_return(p, t), t)
        assert left == right
    # worked instance: the visit with a = t exactly is a genuine strip visit
    assert narrow_first_return((F(3, 10), F(8, 10)), F(1, 2)) == (F(1, 2), F(7, 10))
    assert narrow_embed((F(3, 10), F(8, 10)), F(1, 2)) == (F(3, 10), F(1, 2))


def test_upper_half_plane():
    assert to_upper_half_plane((1, 1)) == (0, 1)
    assert to_upper_half_plane((F(1, 2), F(3, 4))) == (F(1, 2), 4)
    rng = random.Random(11)
    for _ in range(500):
        x, y = to_upper_half_plane(random_section_point(rng))
        assert y >= 1
        assert -F(1, 2) < x <= F(1, 2)


def test_tile_membership_two_ways():
    rng = random.Random(12)
    for _ in range(10**4):
        p = random_section_point(rng)
        k = kappa(p)
        assert tile_contains(k, p)
        assert not tile_contains(k + 1, p)
        if k > 1:
            assert not tile_contains(k - 1, p)


def test_orbit_trace():
    tr = orbit_trace((F(1, 5), 1), 12)
    assert len(tr.points) == len(tr.returns) == len(tr.indices) == 12
    assert tr.points[10] == tr.points[0]  # period N(5) = 10
    for i in range(11):
        assert tr.points[i + 1] == bcz_step(tr.points[i])
        assert tr.returns[i] == roof(tr.points[i])
        assert tr.indices[i] == kappa(tr.points[i])


def test_float_flavor_step():
    a, b = 0.7, 0.8
    fa, fb = bcz_step((a, b))
    ea, eb = bcz_step((F(7, 10), F(8, 10)))
    assert fa == pytest.approx(float(ea)) and fb == pytest.approx(float(eb))


def test_float_drift_detection():
    with pytest.raises((DriftError, DomainError)):
        # far outside: cannot be repaired
        bcz_step((0.5, 0.4))


def test_float_reprojection_clamps():
    assert _reproject(0.5, 1.0 + 1e-10) == 1.0
    repaired = _reproject(0.5, 0.5 - 1e-10)
    assert 0.5 < repaired <= 1.0
    with pytest.raises(DriftError):
        _reproject(0.5, 1.0 + 1e-8)
    with pytest.raises(DriftError):
        _reproject(0.5, 0.5 - 1e-8)
    # (1 + a)/b rounds to exactly 3 here, so the first step lands one ulp
    # above the section; the orbit kernel clamps it back like bcz_step
    start = (0.8305930343327381, 0.6101976781109127)
    assert orbit_trace(start, 2).points[1] == bcz_step(start) == (start[1], 1.0)
    # on the width-4 section the tolerance is 4 * DRIFT_TOL
    assert _reproject(2.0, 4.0 + 3e-9, 4.0) == 4.0
    with pytest.raises(DriftError):
        _reproject(2.0, 4.0 + 5e-9, 4.0)


def test_reprojection_near_the_cusp_stays_in_the_section():
    # 1 - 1e-300 rounds to 1, and the one float in (1 - 1e-300, 1] is 1
    assert _reproject(1e-300, 1.0) == 1.0
    assert _reproject(1e-300, 25.0, 25.0) == 25.0
    tr = orbit_trace((1.0, 1e-300), 4)
    assert all(in_section((F(a), F(b))) for a, b in tr.points)
    assert tr.points[1] == (1e-300, 1.0) and min(tr.indices) >= 1


def test_float_start_whose_index_overflows_is_refused():
    # (1 + 1)/1e-320 is inf: no float kappa, so refuse the start, not step it
    with pytest.raises(DomainError):
        check_section((1.0, 1e-320))
    with pytest.raises(DomainError):
        orbit_trace((1.0, 1e-320), 3)
    with pytest.raises(DomainError):
        t_bcz_step((25.0, 1e-320), 25)
    assert check_section((1.0, 1e-300))[:2] == (1.0, 1e-300)


@st.composite
def near_edge_starts(draw):
    """A float start of the width-w section within 1e-320..1e-12 of an edge."""
    w = draw(st.sampled_from([1.0, 25.0]))
    gap = draw(st.floats(1e-320, 1e-12))
    s = w * draw(st.floats(0.0, 1.0))
    p = draw(st.sampled_from([
        (w, gap), (gap, w),  # the two corners next to the open diagonal
        (w - gap, s), (s, w - gap),  # just inside a = w and b = w
        (s, w - s + gap),  # just above the diagonal a + b = w
    ]))
    assume(in_section((F(p[0]), F(p[1])), F(w)))
    return p, w


@settings(max_examples=300)
@given(near_edge_starts())
@example(start=((1.0, 1e-300), 1.0))
@example(start=((1.0, 1e-320), 1.0))
@example(start=((25.0, 1e-300), 25.0))
def test_float_orbit_near_an_edge_stays_in_the_section(start):
    p, w = start
    try:
        assert check_section(p, w)[:2] == p  # a point inside is not moved
    except DomainError:  # refused at the start: the float index overflows
        return
    for _, (x, y, k) in zip(range(30), _orbit(p, w)[-1]):
        assert in_section((F(x), F(y)), F(w)) and k >= 1
    q = p
    for _ in range(30):
        q = t_bcz_step(q, w)
        assert in_section((F(q[0]), F(q[1])), F(w))
    if w == 1.0:
        tr = orbit_trace(p, 30)
        assert all(in_section((F(a), F(b))) for a, b in tr.points)
        assert min(tr.indices) >= 1


@st.composite
def edge_points(draw):
    """A float point of the width-w square whose a + b is a few ulps from w,
    or a corner point with one coordinate tiny."""
    w = draw(st.sampled_from([1.0, 0.25, 25.0]))
    a = draw(st.floats(0.0, w, exclude_min=True) | st.sampled_from([w, 1e-300, 5e-324]))
    b = w - a
    if b:
        b += draw(st.integers(-4, 4)) * math.ulp(b)
    else:
        b = draw(st.sampled_from([5e-324, 1e-300]))
    return (a, b) if draw(st.booleans()) else (b, a), w


@settings(max_examples=500)
@given(edge_points())
@example(start=((1.0, 1e-300), 1.0))
@example(start=((0.3, 0.7000000000000001), 1.0))  # the float sum is 1
@example(start=((0.3, 0.7), 1.0))  # the float sum is 1, the exact one below
def test_in_section_decides_floats_exactly(start):
    (a, b), w = start
    assert in_section((a, b), w) == in_section((F(a), F(b)), F(w))


@st.composite
def starts_just_off_the_section(draw):
    """A float start at most DRIFT_TOL/2 outside the unit section: above
    b = 1, right of a = 1, or below the diagonal a + b = 1."""
    s = draw(st.floats(1e-3, 1 - 1e-3))
    off = draw(st.floats(0.0, DRIFT_TOL / 2))
    return draw(st.sampled_from([(s, 1 + off), (1 + off, s), (s, (1 - s) - off)]))


@settings(max_examples=300)
@given(starts_just_off_the_section())
@example(p=(0.5, 1.0000000005))
def test_a_float_start_just_off_the_section_is_clamped_onto_it(p):
    assert in_section(check_section(p)[:2])
    assert in_section(bcz_step(p))
    assert all(in_section(q) for q in orbit_trace(p, 2).points)
    assert max(excursion_trace(p, 4).maxima_lengths) <= 1


def test_an_empty_float_section_refuses_every_point():
    # nothing lies within width 0, so nothing can be clamped onto it
    with pytest.raises(DomainError):
        check_section((1e-10, 1e-10), 0.0)
    with pytest.raises(DomainError):  # nor is an infinite width a section
        check_section((0.5, 0.5), math.inf)


@st.composite
def points_near_an_edge(draw):
    """A float (a, b) with 0 < a <= w and b within 2 DRIFT_TOL * max(1, w),
    or a few ulps, of the diagonal b = w - a or the top b = w."""
    w = draw(st.sampled_from([1.0, 0.25, 3.0, 1e6]))
    a = draw(st.floats(0.0, w, exclude_min=True) | st.sampled_from([w, 1e-300]))
    edge = draw(st.sampled_from([w - a, w]))
    tol = DRIFT_TOL * max(1.0, w)
    b = draw(st.floats(edge - 2 * tol, edge + 2 * tol)
             | st.integers(-4, 4).map(lambda i: edge + i * math.ulp(edge)))
    return a, b, w


@settings(max_examples=500)
@given(points_near_an_edge())
@example(p=(0.1, 0.9, 1.0))  # fl(1 - 0.1) = 0.9, but 0.1 + 0.9 > 1 exactly
@example(p=(0.3, 0.7, 1.0))  # the float sum is 1, the exact one below
def test_reproject_moves_only_points_outside_the_section(p):
    a, b, w = p
    try:
        got = _reproject(a, b, w)
    except DriftError:
        assert not in_section((a, b), w)
        return
    if in_section((a, b), w):
        assert got == b
    else:
        assert in_section((F(a), F(got)), F(w))


@settings(max_examples=300)
@given(points_near_an_edge(), st.sampled_from([-1, 0, 1]), st.booleans())
def test_check_section_at_its_tolerance_never_drifts(p, ulps, swap):
    """check_section accepts up to _reproject's thresholds, so it returns a
    section point or raises DomainError, never DriftError."""
    a, b, w = p
    tol = DRIFT_TOL * max(1.0, w)
    edge = (w - a) - tol if b < w - a else w + tol  # the tolerance boundary
    b = edge + ulps * math.ulp(edge)
    try:
        x, y, _, _ = check_section((b, a) if swap else (a, b), w)
    except DomainError:
        return
    assert in_section((F(x), F(y)), F(w))


def test_a_float_step_inside_the_section_is_not_moved():
    # fl(1 - 0.1) = 0.9, yet 0.1 + 0.9 > 1 exactly: the point is inside
    assert in_section((0.1, 0.9))
    assert bcz_step((0.9, 0.1)) == (0.1, 0.9)
    assert orbit_trace((0.9, 0.1), 2).points[1] == (0.1, 0.9)


# -- the integer orbit kernel against the Fraction one-step functions ---------

@st.composite
def section_points(draw, max_den=300):
    a = draw(st.fractions(min_value=0, max_value=1, max_denominator=max_den))
    b = draw(st.fractions(min_value=1 - a, max_value=1, max_denominator=max_den))
    assume(a > 0 and a + b > 1)
    return (a, b)


widths = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=50).filter(lambda t: t > 0)


# denominators <= 12 traced for up to 400 steps run past their coordinate
# range, so orbit_trace's memo of built Fractions is hit there
@settings(max_examples=80)
@given(st.one_of(st.tuples(section_points(), st.integers(1, 80)),
                 st.tuples(section_points(max_den=12), st.integers(1, 400))), widths)
def test_kernel_matches_fraction_oracle(start, t):
    p, n = start
    # the width-t kernel, step by step
    q = scale_point(p, t)
    d, _, orbit = _orbit(q, t)
    for _, (x, y, k) in zip(range(n), orbit):
        assert (F(x, d), F(y, d), k) == (*q, t_kappa(q, t))
        q = t_bcz_step(q, t)

    # orbit_trace and cocycle at width 1
    tr = orbit_trace(p, n)
    assert {type(v) for pt in tr.points for v in pt} | {type(r) for r in tr.returns} == {F}
    q, m = p, IntMatrix2(1, 0, 0, 1)
    for i in range(n):
        assert tr.points[i] == q
        assert tr.returns[i] == t_roof(q, 1)
        assert tr.indices[i] == t_kappa(q, 1)
        m = tile_matrix(t_kappa(q, 1)) @ m
        q = t_bcz_step(q, 1)
    assert cocycle(p, n) == m

    # the same orbit in floats runs the same arithmetic as the float step
    fp = (float(p[0]), float(p[1]))
    ftr = orbit_trace(fp, n)
    q = fp
    for i in range(n):
        assert ftr.points[i] == q and ftr.returns[i] == roof(q) and ftr.indices[i] == kappa(q)
        q = bcz_step(q)

    # slope gaps at width t: roofs and their prefix sums along the orbit
    basis = UnimodularBasis.from_section_point(p)
    assume(shortest_vertical_length(basis) * t >= 1)
    series = slope_gaps_via_bcz(basis, t, n)
    s, q = first_section_hit(basis, t)
    slopes, gaps = [s], []
    for _ in range(n):
        gaps.append(t_roof(q, t))
        slopes.append(slopes[-1] + gaps[-1])
        q = t_bcz_step(q, t)
    assert series.gaps == gaps
    assert series.slopes == slopes


# -- one flavor per input ------------------------------------------------------

def _leaves(x):
    return [x] if isinstance(x, Number) else [v for part in x for v in _leaves(part)]


def _flavored_results(p, t, b_raw):
    """The functions that fix a flavor from their input, at a unit-section
    point p, its width-t image q and the raw pair (q's a, b_raw) at width t."""
    q = scale_point(p, t)
    return {
        "t_kappa": t_kappa(q, t),
        "t_roof": t_roof(q, t),
        "t_bcz_step": t_bcz_step(q, t),
        "to_upper_half_plane": to_upper_half_plane(p),
        "handoff": handoff(p),
        "reduce_to_section": reduce_to_section(q[0], b_raw, t),
    }


@settings(max_examples=150)
@given(section_points(), widths, st.fractions(min_value=-5, max_value=5, max_denominator=50))
@example(p=(F(1), F(3, 5)), t=F(1), b_raw=F(1, 2))
def test_exact_inputs_give_fractions_and_float_images_agree(p, t, b_raw):
    # floor and ceil jump where their argument is an integer, and a float
    # image may round to either side of the jump
    q = scale_point(p, t)
    assume(((t + q[0]) / q[1]).denominator != 1)
    assume(((2 * p[1] - p[0]) / (2 * p[0])).denominator != 1)
    assume(((t - b_raw) / q[0]).denominator != 1)
    exact = _flavored_results(p, t, b_raw)

    # b and b_raw always become floats, so every call sees a decimal entry;
    # an integral a or t stays an int, and must still run in floats
    def image(v):
        return int(v) if v.denominator == 1 else float(v)

    floats = _flavored_results((image(p[0]), float(p[1])), image(t), float(b_raw))
    for name, value in exact.items():
        for ev, fv in zip(_leaves(value), _leaves(floats[name]), strict=True):
            if type(ev) is int:  # kappa and the shift are ints in both flavors
                assert type(fv) is int and ev == fv, name
            else:
                assert type(ev) is F and type(fv) is float, name
                assert abs(fv - ev) <= 1e-9 * max(1, abs(ev)), name


@pytest.mark.parametrize("call, value", [
    (lambda: roof((1, 0.5)), 2.0),
    (lambda: t_roof((F(1, 2), F(3, 4)), 1.0), 8 / 3),
    (lambda: to_upper_half_plane((1, 0.6)), (-0.4, 1.0)),
    (lambda: handoff((1, 0.6)), (0.0, 1.0)),
    (lambda: reduce_to_section(1, 1, 1.0)[0], (1.0, 1.0)),
    (lambda: orbit_trace((1, 0.6), 1).points[0], (1.0, 0.6)),
    (lambda: bcz_step((F(1, 2), 0.9)), (0.9, 0.4)),
    (lambda: slope_gaps_via_bcz(UnimodularBasis(1, 0.5, 0, 1), 1, 2).slopes, (0.5, 1.5, 2.5)),
], ids=["roof", "t_roof float width", "to_upper_half_plane",
        "handoff", "reduce_to_section float width", "orbit_trace", "fraction beside a float",
        "mixed basis"])
def test_int_float_mix_runs_in_floats(call, value):
    # one decimal entry makes the whole computation float
    out = _leaves(call())
    assert all(type(v) is float for v in out)
    assert out == pytest.approx(_leaves(value), abs=1e-12)
