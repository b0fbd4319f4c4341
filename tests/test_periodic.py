import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bczmap.core import DomainError, bcz_step, cocycle, orbit_trace, roof
from bczmap.farey import farey_cardinality, totient
from bczmap.periodic import (
    continuous_period,
    discrete_period,
    hierarchy_report,
    orbit_report,
    periodic_matrix,
    segment_matrix,
    shear_conjugation_check,
    slope_fraction,
)

from conftest import random_rational
from oracles import farey_phase_points, iterated_period


def test_is_periodic():
    # Every exact point of the section is periodic: bcz_step returns it to
    # itself after discrete_period steps.  Points outside the section and
    # float points are rejected.
    for p in [(1, F(2, 3)), (F(3, 4), F(3, 4))]:
        q = p
        for _ in range(discrete_period(p)):
            q = bcz_step(q)
        assert q == p
    with pytest.raises(DomainError):
        discrete_period((F(1, 2), F(1, 2)))  # boundary point, not in the section
    with pytest.raises(DomainError):
        discrete_period((0.7, 0.8))  # float flavor rejected


def test_discrete_period_examples():
    assert discrete_period((F(3, 4), F(3, 4))) == 1
    assert discrete_period((1, F(2, 3))) == 4  # N(3)
    assert discrete_period((F(7, 10), F(7, 15))) == 6  # N(4)
    assert discrete_period((F(1, 5), 1)) == 10  # N(5)


def test_continuous_period_examples():
    assert continuous_period((1, 1)) == 1
    for Q in (2, 5, 9, 17):
        assert continuous_period((F(1, Q), 1)) == Q * Q
    assert continuous_period((1, F(2, 3))) == 9


def test_continuous_period_is_roof_sum():
    for p in [(1, F(2, 3)), (F(7, 10), F(7, 15)), (F(1, 7), 1), (F(5, 6), F(2, 3))]:
        total = F(0)
        q = p
        for _ in range(discrete_period(p)):
            total += roof(q)
            q = bcz_step(q)
        assert q == p
        assert total == continuous_period(p)


def test_periodic_matrix_examples():
    assert periodic_matrix((F(4, 5), F(4, 5))).rows() == ((0, 1), (-1, 2))
    assert periodic_matrix((1, F(2, 3))).rows() == ((-5, 9), (-4, 7))


def test_periodic_matrix_formula_at_a_equal_one():
    rng = random.Random(20)
    pairs = [(k, l) for l in range(1, 31) for k in range(1, l + 1) if math.gcd(k, l) == 1]
    for k, l in rng.sample(pairs, 40):
        p = (1, F(k, l))
        m = cocycle(p, iterated_period(p))
        assert periodic_matrix(p) == m == segment_matrix(k, l)
        assert m.trace() == 2


def test_period_on_segment():
    # the slope-2/3 segment: N(3) on a in (3/4, 1] and N(4) on a in (3/5, 3/4]
    assert discrete_period((1, F(2, 3))) == farey_cardinality(3) == 4
    assert discrete_period((F(3, 4), F(1, 2))) == farey_cardinality(4) == 6


def test_segment_formula_exhaustive_small():
    # sampled a inside each subinterval (l/(l+r), l/(l+r-1)]
    for l in range(1, 9):
        for k in range(1, l + 1):
            if math.gcd(k, l) != 1:
                continue
            for r in range(1, k + 1):
                lo, hi = F(l, l + r), F(l, l + r - 1)
                a = min((lo + hi) / 2, F(1))
                p = (a, a * k / l)
                assert discrete_period(p) == iterated_period(p) == farey_cardinality(l + r - 1)
                assert continuous_period(p) == F(l * l) / (a * a)


def test_shear_conjugation():
    assert shear_conjugation_check(1, 1)
    assert shear_conjugation_check(2, 3)
    for l in range(1, 21):
        for k in range(1, l + 1):
            if math.gcd(k, l) == 1:
                assert shear_conjugation_check(k, l)


def test_orbit_report():
    rep = orbit_report((1, F(2, 3)))
    assert rep.discrete_period == 4
    assert rep.continuous_period == 9
    assert rep.slope == F(2, 3)
    assert rep.matrix.rows() == ((-5, 9), (-4, 7))


@st.composite
def exact_section_points(draw, max_den=60):
    """(x/D, y/D) in the section with D <= max_den, slope below or above 1."""
    d = draw(st.integers(1, max_den))
    x = draw(st.integers(1, d))
    y = draw(st.integers(d - x + 1, d))
    if draw(st.booleans()):
        x, y = y, x
    return F(x, d), F(y, d)


@example((F(1), F(1)))  # the fixed point
@example((F(1), F(2, 3)))
@example((F(1, 5), F(1)))  # slope 5, beyond segment_matrix's k <= l
@settings(max_examples=150)
@given(exact_section_points())
def test_closed_forms_match_iteration(p):
    period = iterated_period(p)
    m = cocycle(p, period)
    assert m.trace() == 2
    assert discrete_period(p) == period
    assert periodic_matrix(p) == m
    rep = orbit_report(p)
    assert (rep.point, rep.slope, rep.discrete_period, rep.continuous_period, rep.matrix) == \
        (p, p[1] / p[0], period, continuous_period(p), m)
    assert sum(orbit_trace(p, period).returns) == continuous_period(p)


@example((F(1, 3000), F(1)))
@example((F(2021, 3000), F(1999, 3000)))  # Q = 3000, phase inside F(Q)
@example((F(2, 3), F(2, 3)))  # g = 2, Q = 1
@settings(max_examples=40)
@given(exact_section_points(max_den=3000))
def test_orbit_runs_through_farey_denominators(p):
    assert orbit_trace(p, 50).points == farey_phase_points(p, 50)


def test_hierarchy_against_iteration():
    recs = hierarchy_report(20)
    assert [r["Q"] for r in recs] == list(range(1, 21))
    for rec in recs:
        Q = rec["Q"]
        lo = F(Q, Q + 1)
        ts = [lo + (1 - lo) * F(j, 6) for j in range(1, 7)]  # five samples and t = 1
        assert {iterated_period((t / Q, t)) for t in ts} == {rec["period"]}
        # the next segment starts at a = 1/(Q+1), t = 1
        assert iterated_period((F(1, Q + 1), F(1))) - rec["period"] == rec["jump_to_next"]


def test_hierarchy():
    recs = hierarchy_report(50)
    assert recs[0] == {"Q": 1, "period": 1, "jump_to_next": 1}
    assert discrete_period((F(9, 20), F(9, 10))) == farey_cardinality(2)  # t = 0.9, Q = 2
    for rec in recs:
        assert rec["period"] == farey_cardinality(rec["Q"])
        assert rec["jump_to_next"] == totient(rec["Q"] + 1)
    assert farey_cardinality(5) - farey_cardinality(4) == 4 == totient(5)


def test_hierarchy_running_sum_is_the_farey_count():
    recs = hierarchy_report(300)
    assert [r["Q"] for r in recs] == list(range(1, 301))
    assert [r["period"] for r in recs] == [farey_cardinality(q) for q in range(1, 301)]


def test_index_constant_along_segment():
    # kappa along the orbit of (t, t/Q) does not depend on t in (Q/(Q+1), 1]
    rng = random.Random(21)
    for Q in range(1, 51):
        n = farey_cardinality(Q)
        ref = orbit_trace((1, F(1, Q)), n).indices
        for _ in range(5):
            t = random_rational(rng, F(Q, Q + 1), F(1), max_den=60)
            assert orbit_trace((t, t / Q), n).indices == ref


@pytest.mark.parametrize("call", [
    lambda: hierarchy_report(1),
    lambda: segment_matrix(2, 4),
    lambda: segment_matrix(0, 3),
], ids=["hierarchy q_max=1", "non-coprime", "k=0"])
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_slope_fraction():
    assert slope_fraction((F(3, 4), F(1, 2))) == F(2, 3)
    with pytest.raises(DomainError):
        slope_fraction((F(1, 2), F(1, 2)))  # boundary point, not in the section
    with pytest.raises(DomainError):
        slope_fraction((0.7, 0.8))  # float flavor rejected
