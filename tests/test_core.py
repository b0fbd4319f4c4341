import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bczmap.core import (
    DomainError,
    DriftError,
    IntMatrix2,
    _orbit,
    bcz_step,
    cocycle,
    in_section,
    kappa,
    narrow_embed,
    narrow_first_return,
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
from bczmap.lattices import (UnimodularBasis, first_section_hit,
                             shortest_vertical_length, slope_gaps_via_bcz)
from bczmap.measure import tile_contains

from conftest import random_section_point, random_rational


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
    with pytest.raises(DomainError):
        bcz_step((F(1, 2), 0.9))  # mixed flavors


@pytest.mark.parametrize("call", [
    lambda: orbit_trace((F(1, 2), F(7, 10)), -3),
    lambda: cocycle((F(1, 2), F(7, 10)), 0),
], ids=["orbit_trace n<0", "cocycle n<1"])
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
    from bczmap.core import _reproject

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


# -- the integer orbit kernel against the Fraction one-step functions ---------

@st.composite
def section_points(draw, max_den=300):
    a = draw(st.fractions(min_value=0, max_value=1, max_denominator=max_den))
    b = draw(st.fractions(min_value=1 - a, max_value=1, max_denominator=max_den))
    assume(a > 0 and a + b > 1)
    return (a, b)


widths = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=50).filter(lambda t: t > 0)


@settings(max_examples=60)
@given(section_points(), widths, st.integers(1, 80))
def test_kernel_matches_fraction_oracle(p, t, n):
    # the width-t kernel, step by step
    q = scale_point(p, t)
    d, orbit = _orbit(q, t)
    for _, (x, y, k) in zip(range(n), orbit):
        assert (F(x, d), F(y, d), k) == (*q, t_kappa(q, t))
        q = t_bcz_step(q, t)

    # orbit_trace and cocycle at width 1
    tr = orbit_trace(p, n)
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
