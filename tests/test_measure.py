import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import betaln, loggamma, zeta

from bczmap.core import DomainError
from bczmap.measure import (
    _hurwitz_zeta,
    _quad,
    excursion_integrals,
    hall_cdf,
    hall_kinks,
    integrate_over_section,
    kappa_moment,
    moment_integral,
    roof_cdf,
    roof_integral,
    roof_region_measure,
    tile_measure,
    tile_partition_defect,
)

from oracles import (grid_measure, kappa_moment_tail_bound, roof_power_integral_truncated,
                     tile_measure_shoelace, tile_vertices)

PI2_3 = math.pi**2 / 3


@pytest.mark.parametrize("call", [
    lambda: tile_measure(0),
    lambda: roof_region_measure(1, 0),
    lambda: roof_region_measure(0, 1, method="simpson"),
    lambda: hall_cdf(1.0, 0.0),
    lambda: hall_cdf(math.nan),
    lambda: roof_cdf(math.nan),
    lambda: moment_integral(-2, 0),
    lambda: moment_integral(math.inf, 0),
    lambda: kappa_moment(2.0),
    lambda: kappa_moment(0.5, head=0),
    lambda: kappa_moment(0.5, head=1),
    lambda: kappa_moment(0.5, head=2),
    lambda: tile_partition_defect(0),
    lambda: tile_partition_defect(-1),
    lambda: roof_integral("simpson"),
    lambda: excursion_integrals("simpson"),
], ids=["tile k=0", "region c>d", "unknown method", "hall length 0", "hall nan", "roof nan",
        "B pole", "B infinite", "kappa alpha=2", "kappa head=0", "kappa head=1",
        "kappa head=2", "partition k_max=0", "partition k_max=-1", "roof integral method",
        "excursion integrals method"])
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
    assert tile_partition_defect(1) == 0  # the k = 1 tile and the telescoped rest


def test_roof_cdf_shape():
    assert roof_cdf(0.5) == 0.0
    assert roof_cdf(1.0) == 0.0
    assert roof_cdf(math.inf) == 1.0
    xs = np.linspace(1.0, 60.0, 500)
    vals = [roof_cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.999


def test_roof_cdf_for_large_x_is_one():
    # H = 1 - 2u^2 + ... with u = 1/x: 1 up to rounding once x passes ~1e8
    assert roof_cdf(3e16) == 1.0  # the unclamped formula gives 1 + 2^-52
    assert roof_cdf(1e17) == 1.0  # here 1 - r is 0 in floats
    assert roof_region_measure(1.0, 1e17).value == 1.0
    assert roof_region_measure(1e17, 1e300).value == 0.0


@given(st.one_of(st.floats(1.0, 2.0), st.floats(-1e308, 1e308)))
@example(x=7e10)
@example(x=1e17)
def test_roof_cdf_is_a_probability(x):
    assert 0.0 <= roof_cdf(x) <= 1.0


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


def test_quadrature_raises_instead_of_giving_up_silently():
    # 1/x is not integrable at 0; scipy returns a number with a warning here
    with pytest.raises(ArithmeticError, match=r"over \[0.0, 1.0\] reached error"):
        _quad(lambda x: 1 / x, 0.0, 1.0)
    with pytest.raises(ArithmeticError):
        _quad(lambda x: math.nan, 0.0, 1.0)
    # bisection toward a singular right end stops before a node rounds onto it
    with pytest.raises(ArithmeticError, match="between 1.0 and 0.0"):
        _quad(lambda x: (1 - x) ** -0.9, 0.0, 1.0, limit=200, epsabs=1e-12, epsrel=1e-12)


#: integrands with a closed form on [0, b]: a kink passed as a breakpoint,
#: x^p with p in (-0.9, 2), and log x
QUAD_CASES = st.one_of(
    st.builds(lambda k, r: (lambda x: abs(x - k) ** r, 1.0, [k],
                            (k ** (r + 1) + (1 - k) ** (r + 1)) / (r + 1)),
              st.floats(0.01, 0.99), st.floats(0.5, 3.0)),
    st.builds(lambda p, b: (lambda x: x ** p, b, None, b ** (p + 1) / (p + 1)),
              st.floats(-0.9, 2.0, exclude_min=True, exclude_max=True), st.floats(0.5, 3.0)),
    st.builds(lambda b: (math.log, b, None, b * (math.log(b) - 1)), st.floats(0.5, 3.0)),
)


@settings(max_examples=200, deadline=None)
@given(QUAD_CASES)
@example((lambda x: x ** -0.8999999, 3.0, None, 3.0 ** 0.1000001 / 0.1000001))
def test_quadrature_vs_scipy(case):
    f, b, points, exact = case
    value, error = _quad(f, 0.0, b, points=points, limit=300, epsabs=1e-12, epsrel=1e-12)
    with warnings.catch_warnings():
        # scipy warns where the integral is near 0 and epsrel is out of reach
        warnings.simplefilter("ignore", IntegrationWarning)
        ref, _ = quad(f, 0.0, b, points=points, limit=200, epsabs=1e-11, epsrel=1e-11)
    assert abs(value - ref) < 1e-10
    assert abs(value - exact) <= error


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
    assert moment_integral(1, 0) == pytest.approx(2 / 3, abs=1e-15)
    assert moment_integral(0, 0) == pytest.approx(1.0, abs=1e-15)
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


@given(st.one_of(st.floats(1.0, 5.0, exclude_min=True), st.floats(5.0, 40.0)),
       st.one_of(st.floats(0.01, 40.0), st.integers(1, 5000)))
def test_hurwitz_zeta_vs_scipy(s, a):
    ref = float(zeta(s, a))
    assert _hurwitz_zeta(s, a) == pytest.approx(ref, rel=1e-13, abs=0.0)


def _moment_reference(s, t):
    g = np.exp(loggamma(s + 1) + loggamma(t + 1) - loggamma(s + t + 3))
    return 2.0 * (1.0 / ((s + 1) * (t + 1)) - g)


EXPONENT = st.floats(-0.5, 6.0)


@given(EXPONENT | st.floats(0.0, 1e308), EXPONENT | st.floats(0.0, 1e308))
@example(1e17, 0.0)  # lgamma(s+1) - lgamma(s+t+3) keeps no digit here
@example(3e306, 1e308)  # math.lgamma overflows
def test_moment_integral_vs_scipy_real(s, t):
    # G(s+1)G(t+1)/G(s+t+3) = B(s+1, t+1)/(s+t+2), and betaln does not cancel;
    # it is nan once both arguments pass about 1e306, where B underflows to 0
    lb = betaln(s + 1, t + 1)
    g = 0.0 if math.isnan(lb) else math.exp(lb) / (s + t + 2)
    v = moment_integral(s, t)
    assert isinstance(v, float)
    assert v == pytest.approx(2.0 * (1.0 / ((s + 1) * (t + 1)) - g), rel=1e-13, abs=0.0)


@given(st.builds(complex, EXPONENT, st.floats(-6.0, 6.0)),
       st.one_of(EXPONENT, st.builds(complex, EXPONENT, st.floats(-3.0, 3.0))))
def test_moment_integral_vs_scipy_complex(s, t):
    v = moment_integral(s, t)
    ref = complex(_moment_reference(s, t))
    assert isinstance(v, complex)
    assert abs(v - ref) <= 1e-13 * abs(ref)


def test_kappa_moment():
    assert kappa_moment(1.0) == pytest.approx(3.0, abs=1e-12)
    assert kappa_moment(1e-6) == pytest.approx(1.0, abs=1e-4)
    for alpha in (0.01, 0.3, 0.8, 1.0, 1.5, 1.9, 1.99):
        v = kappa_moment(alpha)
        assert v < kappa_moment_tail_bound(alpha)
        # head-length independence (the Hurwitz tail is doing its job),
        # down to the shortest head, whose tail starts at k = 4
        assert v == pytest.approx(kappa_moment(alpha, head=5000), abs=1e-12)
        assert v == pytest.approx(kappa_moment(alpha, head=3), rel=2e-15)
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
