"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently as ordinary tests.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from bczmap.core import (
    bcz_step,
    cocycle,
    in_section,
    reduce_to_section,
)
from bczmap.excursions import excursion_averages, named_start
from bczmap.farey import (
    counting_bound_check,
    empirical_integral,
    farey_bruteforce,
    farey_cardinality,
    farey_orbit,
    index_values,
    interval_count,
    moment_sum,
    orbit_flow_period,
    spacing_proportion,
)
from bczmap.lattices import (
    UnimodularBasis,
    shear_basis,
    slope_gaps_via_bcz,
    strip_slopes_bruteforce,
)
from bczmap.measure import (
    MAX_PEAK_INTEGRAL,
    MIN_PEAK_INTEGRAL,
    excursion_integrals,
    hall_cdf,
    kappa_moment,
    moment_integral,
    roof_integral,
    roof_region_measure,
    tile_partition_defect,
)
from bczmap.periodic import (
    continuous_period,
    discrete_period,
    periodic_matrix,
    segment_matrix,
    shear_conjugation_check,
)

from conftest import random_rational, random_section_point
from oracles import iterated_period, tile_contains, verify_return_identity

PI2_3 = math.pi**2 / 3


def _report(num: int, text: str) -> None:
    print(f"criterion {num:2d}: PASS — {text}")


def test_criterion_01_farey_oracle_equivalence():
    t0 = time.perf_counter()
    for Q in range(1, 301):
        orbit = farey_orbit(Q)
        brute = farey_bruteforce(Q)
        assert orbit.denominators.tolist() == brute.denominators.tolist(), f"Q={Q}"
        assert len(orbit) == farey_cardinality(Q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"orbit == brute force for Q <= 300 in {elapsed:.1f}s")


def test_criterion_02_flow_period_identity():
    for Q in range(1, 301):
        assert orbit_flow_period(Q) == Q * Q, f"Q={Q}"
    _report(2, "sum of return times equals Q^2 exactly for Q <= 300")


def test_criterion_03_periodic_structure():
    t0 = time.perf_counter()
    rng = random.Random(303)
    for l in range(1, 21):
        for k in range(1, l + 1):
            if math.gcd(k, l) != 1:
                continue
            for r in range(1, k + 1):
                lo, hi = F(l, l + r), F(l, l + r - 1)
                a = min(lo + (hi - lo) * F(rng.randint(1, 9), 10), F(1))
                p = (a, a * k / l)
                period = iterated_period(p)
                assert discrete_period(p) == period == farey_cardinality(l + r - 1)
                assert continuous_period(p) == F(l * l) / (a * a)
                m = cocycle(p, period)
                assert periodic_matrix(p) == m and m.trace() == 2
            p = (F(1), F(k, l))
            assert periodic_matrix(p) == cocycle(p, iterated_period(p)) == segment_matrix(k, l)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, f"periods, flow periods and cocycles against iteration for k <= l <= 20"
               f" in {elapsed:.1f}s")


def test_criterion_04_shear_conjugation():
    for l in range(1, 51):
        for k in range(1, l + 1):
            if math.gcd(k, l) == 1:
                assert shear_conjugation_check(k, l)
    assert periodic_matrix((F(1), F(2, 3))).rows() == ((-5, 9), (-4, 7))
    _report(4, "segment shears conjugate to [[1, k^2+l^2], [0, 1]] for k <= l <= 50")


def test_criterion_05_measure_constants():
    assert tile_partition_defect(10**6) < 1e-12
    assert abs(roof_integral("quadrature") - PI2_3) < 1e-8
    assert abs(moment_integral(1, 0) - 2 / 3) < 1e-10
    assert abs(moment_integral(0, 0) - 1.0) < 1e-10
    assert abs(moment_integral(-1, 0) - 2.0) < 1e-10
    assert abs(moment_integral(-1, -1) - PI2_3) < 1e-10
    assert abs(kappa_moment(1.0) - 3.0) < 1e-10
    qlo, qhi = excursion_integrals("quadrature")
    assert abs(qlo - (2 / 3) * (13 - 8 * math.sqrt(2))) < 1e-8
    assert abs(qhi - (2 / 3) * (7 - 4 * math.sqrt(2))) < 1e-8
    _report(5, "tile partition, roof integral, B-moments, kappa moment, peak integrals")


def test_criterion_06_hall_cdf():
    t0 = time.perf_counter()
    for d in np.linspace(0.01, 6.0, 300):
        cf = hall_cdf(float(d))
        q = roof_region_measure(0.0, math.pi**2 * float(d) / 3, method="quadrature")
        assert abs(cf - q.value) < 1e-8
    grid = [hall_cdf(float(d)) for d in np.linspace(0.0, 60.0, 1000)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))
    assert grid[0] == 0.0 and hall_cdf(3 / math.pi**2) == 0.0
    assert grid[-1] > 0.999
    for d in (0.5, 1.0, 1.5, 2.0, 3.0):
        emp = spacing_proportion(2000, (0, 1), 0.0, d)
        assert abs(emp - hall_cdf(d)) < 1e-2, f"d={d}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(6, f"closed form == quadrature on 300 points; F(2000) empirical match in {elapsed:.1f}s")


def test_criterion_07_equidistribution_statistics():
    Q = 1000
    assert abs(moment_sum(Q, (0, 1), 1, 0) - 2 / 3) < 5e-3
    assert abs(moment_sum(Q, (0, 1), -1, 0) - 2.0) < 1e-2
    assert abs(farey_cardinality(Q) * PI2_3 / Q**2 - 1.0) < 1e-2
    assert abs(float(index_values(Q).mean()) - 3.0) < 1e-2
    mn = empirical_integral(Q, (0, 1),
                            lambda a, b: np.minimum(np.minimum(1 / a, 1 / b), a + b))
    mx = empirical_integral(Q, (0, 1),
                            lambda a, b: np.maximum(np.maximum(a, b), 1 / (a + b)))
    assert abs(mn - MIN_PEAK_INTEGRAL) < 1e-2
    assert abs(mx - MAX_PEAK_INTEGRAL) < 1e-2
    _report(7, "Q = 1000 means: q/Q, Q/q, N(Q) asymptotics, index, min/max statistics")


def test_criterion_08_counting_lower_bound():
    rng = random.Random(808)
    for Q in range(50, 1001, 50):
        assert counting_bound_check(Q, (0, 1))
        done = 0
        while done < 20:
            lo = random_rational(rng, F(0), F(9, 10), max_den=200)
            hi = random_rational(rng, lo, min(lo + F(1, 2), F(1)), max_den=200)
            if hi <= lo:
                continue
            if interval_count(Q, (lo, hi)) == 0:
                continue
            assert counting_bound_check(Q, (lo, hi)), f"Q={Q} I=[{lo},{hi}]"
            done += 1
    _report(8, "N_I(Q) >= min(|I|/18pi, |I|^2/4) Q^2 on 20 random subintervals per Q")


def test_criterion_09_excursion_simulation():
    t0 = time.perf_counter()
    res = excursion_averages(named_start("golden"), 10**6)
    elapsed = time.perf_counter() - t0
    assert abs(res.alpha_mean - 2.0) / 2.0 < 0.01
    assert abs(res.length_mean - 2 / 3) / (2 / 3) < 0.01
    assert abs(res.peak_reciprocal_mean - MIN_PEAK_INTEGRAL) / MIN_PEAK_INTEGRAL < 0.01
    assert abs(res.peak_mean - MAX_PEAK_INTEGRAL) / MAX_PEAK_INTEGRAL < 0.01
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(9, f"golden-slope 10^6-step averages within 1% ({res.repairs} drift repairs, {elapsed:.1f}s)")


def test_criterion_10_slope_gap_oracle():
    # integer lattice, wide strip: exact equality and eventual period N(25)
    ident = UnimodularBasis.identity()
    n25 = farey_cardinality(25)
    via = slope_gaps_via_bcz(ident, 25, 3 * n25)
    brute = strip_slopes_bruteforce(ident, 25, via.slopes[-1])
    m = min(len(via.slopes), len(brute.slopes))
    assert via.slopes[:m] == brute.slopes[:m]
    gaps = via.gaps
    assert all(gaps[i] == gaps[i + n25] for i in range(len(gaps) - n25))

    # golden-sheared basis: 10^4 slopes against the enumerator
    phi = (1 + math.sqrt(5)) / 2
    golden = shear_basis(F.from_float(phi))
    via = slope_gaps_via_bcz(golden, 1, 10**4)
    brute = strip_slopes_bruteforce(golden, 1, via.slopes[-1])
    m = min(len(via.slopes), len(brute.slopes))
    assert m > 10**4
    assert all(abs(float(a) - float(b)) <= 1e-9 for a, b in zip(via.slopes[:m], brute.slopes[:m]))

    # long-run gap statistics against the invariant measure
    gaps = slope_gaps_via_bcz(UnimodularBasis(1.0, 0.0, phi, 1.0), 1.0, 10**6).gaps
    frac = sum(1 for g in gaps if 1.0 < g < 2.0) / len(gaps)
    assert abs(frac - roof_region_measure(1.0, 2.0).value) < 1e-2
    _report(10, "BCZ slopes == enumerator (Z^2 t=25 exact, golden 10^4); gap law at 10^6")


def test_criterion_11_identity_suite():
    rng = random.Random(1111)
    for _ in range(10**4):
        assert verify_return_identity(random_section_point(rng, max_den=200))
    for _ in range(10**4):
        p = random_section_point(rng)
        t = random_rational(rng, F(0), F(4))
        assert bcz_step((t * p[0], t * p[1]), t) == tuple(t * v for v in bcz_step(p))
    for _ in range(10**4):
        da = rng.randint(1, 1000)
        a = F(rng.randint(1, da), da)
        b_raw = F(rng.randint(-3000, 3000), rng.randint(1, 500))
        (_, b), shift = reduce_to_section(a, b_raw)
        assert 1 - a < b <= 1 and b == shift * a + b_raw
    from bczmap.core import kappa as kappa_fn
    for _ in range(10**4):
        p = random_section_point(rng)
        k = kappa_fn(p)
        assert tile_contains(k, p) and not tile_contains(k + 1, p)
        assert k == 1 or not tile_contains(k - 1, p)
        assert in_section(bcz_step(p))
    _report(11, "return identity, scaling conjugacy, section reduction, tile membership x 10^4")
