import math
from fractions import Fraction as F

import numpy as np
import pytest

from bczmap.core import DomainError
from bczmap.measure import (
    excursion_integrals,
    grid_measure,
    hall_cdf,
    hall_kinks,
    integrate_over_section,
    kappa_moment,
    kappa_moment_tail_bound,
    moment_integral,
    roof_cdf,
    roof_integral,
    roof_power_integral_truncated,
    roof_region_measure,
    tile_measure,
    tile_measure_shoelace,
    tile_partition_defect,
    tile_vertices,
)

PI2_3 = math.pi**2 / 3


@pytest.mark.parametrize("call", [
    lambda: tile_measure(0),
    lambda: roof_region_measure(1, 0),
    lambda: roof_region_measure(0, 1, method="simpson"),
    lambda: hall_cdf(1.0, 0.0),
    lambda: moment_integral(-2, 0),
    lambda: moment_integral(math.inf, 0),
    lambda: kappa_moment(2.0),
], ids=["tile k=0", "region c>d", "unknown method", "hall length 0", "B pole",
        "B infinite", "kappa alpha=2"])
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_tile_measures():
    assert tile_measure(1) == F(1, 3)
    assert tile_measure(2) == F(1, 3)
    assert tile_measure(7) == F(8, 7 * 8 * 9)
    with pytest.raises(ValueError):
        tile_measure(0)


def test_tile_measure_vs_shoelace():
    for k in range(1, 201):
        assert tile_measure_shoelace(k) == tile_measure(k)


def test_tile_vertices_on_defining_lines():
    for k in range(2, 50):
        v = tile_vertices(k)
        # two vertices on each of b = (1+a)/k and b = (1+a)/(k+1), two on a+b=1, two on a=1
        assert v[0][1] * k == 1 + v[0][0]
        assert v[3][1] * k == 1 + v[3][0]
        assert v[1][1] * (k + 1) == 1 + v[1][0]
        assert v[2][1] * (k + 1) == 1 + v[2][0]
        assert v[2][0] + v[2][1] == 1 and v[3][0] + v[3][1] == 1
        assert v[0][0] == 1 and v[1][0] == 1


def test_partition_of_unity():
    assert tile_partition_defect(10**5) < 1e-12


def test_roof_cdf_shape():
    assert roof_cdf(0.5) == 0.0
    assert roof_cdf(1.0) == 0.0
    assert roof_cdf(math.inf) == 1.0
    xs = np.linspace(1.0, 60.0, 500)
    vals = [roof_cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.999


def test_roof_region_measure_examples():
    assert roof_region_measure(0, 1).value == 0.0
    assert roof_region_measure(1, math.inf).value == 1.0
    r = roof_region_measure(4, math.inf, method="quadrature")
    assert r.method == "quadrature" and r.estimated_error <= 1e-9
    assert abs(r.value - roof_region_measure(4, math.inf).value) < 1e-9
    with pytest.raises(ValueError):
        roof_region_measure(2, 1)


def test_closed_form_vs_quadrature_grid():
    for d in np.linspace(0.05, 8.0, 80):
        cf = roof_region_measure(0, float(d)).value
        q = roof_region_measure(0, float(d), method="quadrature").value
        assert abs(cf - q) < 1e-9


def test_roof_cdf_vs_grid():
    for x in (1.5, 2.0, 3.0, 4.5):
        assert abs(roof_cdf(x) - grid_measure(lambda a, b: 1.0 / (a * b) < x)) < 3e-3


def test_hall_cdf_properties():
    k1, k2 = hall_kinks(1.0)
    assert k1 == pytest.approx(3 / math.pi**2)
    assert k2 == pytest.approx(12 / math.pi**2)
    assert hall_cdf(k1) == 0.0
    assert hall_cdf(k1 + 1e-9) > 0.0
    assert hall_cdf(50.0) > 0.999
    # scaling in the interval length
    assert hall_cdf(0.5, 0.5) == pytest.approx(hall_cdf(1.0, 1.0))


def test_hall_kink_curvature_breaks():
    # the CDF is C^1; the kinks are second-order: the density picks up a
    # corner at the lower kink and a vertical tangent at the upper one
    h = 1e-4

    def curv(d):
        return (hall_cdf(d + h) - 2 * hall_cdf(d) + hall_cdf(d - h)) / h**2

    k1, k2 = hall_kinks(1.0)
    assert hall_cdf(k1 - h) == 0.0 and hall_cdf(k1 + h) > 0.0
    left = (hall_cdf(k1) - 2 * hall_cdf(k1 - h) + hall_cdf(k1 - 2 * h)) / h**2
    right = (hall_cdf(k1 + 2 * h) - 2 * hall_cdf(k1 + h) + hall_cdf(k1)) / h**2
    assert left == 0.0
    assert right > 10.0  # analytic value 2 (pi^2/3)^2 ~ 21.6
    left = (hall_cdf(k2) - 2 * hall_cdf(k2 - h) + hall_cdf(k2 - 2 * h)) / h**2
    right = (hall_cdf(k2 + 2 * h) - 2 * hall_cdf(k2 + h) + hall_cdf(k2)) / h**2
    assert abs(left) < 1.0
    assert right < -5.0  # one-sided sqrt cusp of the density
    for d0 in (0.7, 2.0):  # smooth points for contrast
        assert abs(curv(d0 + h) - curv(d0 - h)) < 0.1


def test_roof_integral():
    assert roof_integral() == pytest.approx(PI2_3, abs=1e-15)
    assert abs(roof_integral("quadrature") - PI2_3) < 1e-9


def test_roof_power_integrability_threshold():
    # int R^p dm is finite iff p < 2: per-decade increments of the truncated
    # integral decay geometrically (ratio 10^{p-2}) below the threshold and
    # stay constant (~ 4 ln 10) at it
    v19 = [roof_power_integral_truncated(1.9, x) for x in (1e3, 1e4, 1e5)]
    d1, d2 = v19[1] - v19[0], v19[2] - v19[1]
    assert d2 == pytest.approx(10 ** (-0.1) * d1, rel=0.05)
    v20 = [roof_power_integral_truncated(2.0, x) for x in (1e3, 1e4, 1e5)]
    d1, d2 = v20[1] - v20[0], v20[2] - v20[1]
    assert d1 > 1.0 and d2 > 1.0
    assert d2 == pytest.approx(d1, rel=0.05)
    assert d2 == pytest.approx(4 * math.log(10), rel=0.1)


def test_moment_integral_values():
    assert moment_integral(1, 0) == pytest.approx(2 / 3, abs=1e-12)
    assert moment_integral(0, 0) == pytest.approx(1.0, abs=1e-12)
    assert moment_integral(-1, 0) == 2.0
    assert moment_integral(0, -1) == 2.0
    assert moment_integral(-1, -1) == pytest.approx(PI2_3, abs=1e-15)
    with pytest.raises(ValueError):
        moment_integral(-1.5, 1)


def test_moment_integral_near_poles():
    # the special values are the limits of the closed form
    assert moment_integral(-1 + 1e-5, 0) == pytest.approx(2.0, abs=1e-4)
    assert moment_integral(-1 + 1e-4, -1 + 1e-4) == pytest.approx(PI2_3, abs=1e-3)


def test_moment_integral_vs_quadrature():
    for s, t in [(1, 0), (2, 1), (0.5, 0.5), (-0.5, 0.3), (3, 2)]:
        q, _ = integrate_over_section(lambda a, b: a**s * b**t)
        assert abs(moment_integral(s, t) - q) < 1e-9


def test_moment_integral_complex():
    v = moment_integral(complex(1, 0.5), 0)
    assert isinstance(v, complex)
    assert moment_integral(complex(1, 0), complex(0, 0)) == pytest.approx(2 / 3)


def test_kappa_moment():
    assert kappa_moment(1.0) == pytest.approx(3.0, abs=1e-12)
    assert kappa_moment(1e-6) == pytest.approx(1.0, abs=1e-4)
    for alpha in (0.3, 0.8, 1.0, 1.5, 1.9):
        v = kappa_moment(alpha)
        assert v < kappa_moment_tail_bound(alpha)
        # head-length independence (the Hurwitz tail is doing its job)
        assert v == pytest.approx(kappa_moment(alpha, head=5000), abs=1e-12)
    with pytest.raises(ValueError):
        kappa_moment(2.0)


def test_kappa_moment_vs_tile_sum():
    # direct rational partial sum + integral tail bracket
    for alpha in (0.5, 1.0, 1.5):
        head = sum(float(k**alpha * tile_measure(k)) for k in range(1, 20001))
        tail_hi = 8 * 20000 ** (alpha - 2) / (2 - alpha)
        v = kappa_moment(alpha)
        assert head < v < head + tail_hi


def test_excursion_integrals():
    lo, hi = excursion_integrals()
    assert lo == pytest.approx((2 / 3) * (13 - 8 * math.sqrt(2)), abs=1e-15)
    assert hi == pytest.approx((2 / 3) * (7 - 4 * math.sqrt(2)), abs=1e-15)
    qlo, qhi = excursion_integrals("quadrature")
    assert abs(qlo - lo) < 1e-8
    assert abs(qhi - hi) < 1e-8
    assert lo == pytest.approx(1.1241943340, abs=1e-9)
    assert hi == pytest.approx(0.8954305003, abs=1e-9)


def test_length_and_alpha_integrals():
    # int a dm = 2/3 and int 1/a dm = 2 through the generic quadrature
    v, _ = integrate_over_section(lambda a, b: a)
    assert abs(v - 2 / 3) < 1e-10
    v, _ = integrate_over_section(lambda a, b: 1.0 / a)
    assert abs(v - 2.0) < 1e-8


def test_grid_measure_total_mass():
    assert grid_measure(lambda a, b: np.ones_like(a, dtype=bool)) == pytest.approx(1.0, abs=1e-3)
