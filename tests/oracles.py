"""Slow reference implementations that only the tests use.

scipy is the independent oracle here: the package's closed forms are pure
Python and are checked against scipy's special functions and quadrature.
"""

import math

from scipy.integrate import quad
from scipy.special import zeta

from bczmap.core import DriftError, _reproject, check_section
from bczmap.excursions import ExcursionAverages
from bczmap.measure import _band_breakpoints


def roof_power_integral_truncated(p: float, r_max: float) -> float:
    """Quadrature of int_{R <= r_max} R^p dm; diverges with r_max iff p >= 2.

    The inner b-integral over the band {ab >= 1/r_max} is analytic, leaving a
    1D adaptive integral with known breakpoints.
    """
    u1 = 1.0 / r_max

    def antider(b: float) -> float:
        if p == 1.0:
            return math.log(b)
        return b ** (1.0 - p) / (1.0 - p)

    def slice_val(a: float) -> float:
        lo = max(1.0 - a, u1 / a)
        if lo >= 1.0:
            return 0.0
        return a ** (-p) * (antider(1.0) - antider(lo))

    val, _ = quad(slice_val, 0.0, 1.0, points=_band_breakpoints(u1, math.inf),
                  limit=300, epsabs=1e-10, epsrel=1e-10)
    return 2.0 * val


def kappa_moment_tail_bound(alpha: float) -> float:
    """Crude analytic bound 1/3 + 8 zeta(3 - alpha) dominating the moment."""
    return 1.0 / 3.0 + 8.0 * float(zeta(3.0 - alpha, 1))


def excursion_averages_loop(start, n: int, record_every: int = 0,
                            max_repairs: int | None = None) -> ExcursionAverages:
    """excursion_averages as one plain loop over the steps: the reference the
    chunked loop must match bit for bit."""
    a, b, _, _ = check_section(start)
    a, b = float(a), float(b)
    sum_alpha = sum_len = sum_peak = sum_rpeak = 0.0
    repairs = 0
    history = []
    for i in range(1, n + 1):
        sum_alpha += 1.0 / a
        sum_len += a
        m = max(a, b, 1.0 / (a + b))
        sum_peak += m
        sum_rpeak += 1.0 / m
        if record_every and (i % record_every == 0 or i == n):
            history.append((i, sum_alpha / i, sum_len / i, sum_rpeak / i, sum_peak / i))
        k = math.floor((1.0 + a) / b)
        a, b = b, k * b - a
        if not 1.0 - a < b <= 1.0:
            b = _reproject(a, b)
            repairs += 1
            if max_repairs is not None and repairs > max_repairs:
                raise DriftError(f"repair budget {max_repairs} exhausted at step {i}")
    return ExcursionAverages(
        sum_alpha / n, sum_len / n, sum_rpeak / n, sum_peak / n, n, repairs, history
    )
