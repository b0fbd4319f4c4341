"""Slow reference implementations that only the tests use.

scipy is the independent oracle here, and only the tests import it: the
package's closed forms and its Gauss-Kronrod quadrature are pure Python and
are checked against scipy's special functions and `scipy.integrate.quad`.
"""

import math
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import zeta

from bczmap.core import (DomainError, _mat2_mul, _orbit, bcz_step, check_section, kappa,
                         reduce_to_section)
from bczmap.excursions import peak_length
from bczmap.farey import _as_interval, _index_range, farey_orbit
from bczmap.lattices import _Lattice, _gauss_bound, _gauss_reduce
from bczmap.measure import _band_breakpoints


def verify_return_identity(p) -> bool:
    """Exact check of the return identity h_{R(p)} . p_{a,b} . A(p)^T = p_{T(p)}.

    Here p_{a,b} = [[a, b], [0, 1/a]] and h_s = [[1, 0], [-s, 1]].  Note the
    multiplying matrix is the transpose [[0, -1], [1, kappa]] of the tile
    matrix A_{kappa(p)} = [[0, 1], [-1, kappa]].
    """
    a, b, _, exact = check_section(p)
    if not exact:
        raise DomainError("verify_return_identity requires the exact flavor")
    r = 1 / (a * b)
    h = ((1, 0), (-r, 1))
    pa = ((a, b), (0, 1 / a))
    w = ((0, -1), (1, kappa(p)))
    left = _mat2_mul(_mat2_mul(h, pa), w)
    ta, tb = bcz_step(p)
    right = ((ta, tb), (0, 1 / ta))
    return left == right


def tile_vertices(k: int) -> list:
    """Corners of Omega_k in cyclic order: a triangle for k = 1, else the
    quadrilateral cut out by b = (1+a)/k, a = 1, b = (1+a)/(k+1), a+b = 1."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if k == 1:
        return [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(1, 3), Fraction(2, 3))]
    return [
        (Fraction(1), Fraction(2, k)),
        (Fraction(1), Fraction(2, k + 1)),
        (Fraction(k, k + 2), Fraction(2, k + 2)),
        (Fraction(k - 1, k + 1), Fraction(2, k + 1)),
    ]


def tile_contains(k: int, p) -> bool:
    """Half-plane membership in Omega_k: (1+a)/(k+1) < b <= (1+a)/k, inside Omega.

    Written multiplicatively so exact scalars stay exact.
    """
    a, b = p
    if not (0 < a <= 1 and 0 < b <= 1 and a + b > 1):
        return False
    return (k + 1) * b > 1 + a >= k * b


def tile_measure_shoelace(k: int) -> Fraction:
    """Independent tile mass from the vertex polygon (shoelace formula, exact)."""
    v = tile_vertices(k)
    twice_area = sum(
        v[i][0] * v[(i + 1) % len(v)][1] - v[(i + 1) % len(v)][0] * v[i][1]
        for i in range(len(v))
    )
    return abs(twice_area)  # m = 2 * area


def grid_measure(indicator: Callable, n: int = 4000, block: int = 256) -> float:
    """Midpoint-grid mass of {indicator} ∩ Omega; indicator takes coordinate arrays.

    First-order accurate in 1/n along the region boundary; good enough as an
    independent oracle for percent-level checks of composite regions.
    """
    h = 1.0 / n
    a = (np.arange(n, dtype=np.float64) + 0.5) * h
    count = 0
    for i0 in range(0, n, block):
        b = (np.arange(i0, min(i0 + block, n), dtype=np.float64) + 0.5) * h
        A, B = np.meshgrid(a, b)
        mask = (A + B > 1.0) & indicator(A, B)
        count += int(np.count_nonzero(mask))
    return 2.0 * count * h * h


def index_values_via_kappa(Q: int) -> np.ndarray:
    """Farey indices through the section map: nu(gamma_i) = kappa(T^{i-2}(1/Q, 1))."""
    q = farey_orbit(Q).denominators
    qm = np.roll(q, 1)
    return (Q + qm) // q


def whole_window(Q: int, interval, before: int = 0, after: int = 1) -> np.ndarray:
    """The denominators q_{start-before} .. q_{end-1+after} of the gamma_i in
    the closed interval, indices mod N, taken as one run by `np.take`: the
    reference for the blocks `farey._blocks` reads, sharing no code with them
    past the bisected index range."""
    seq = farey_orbit(Q)
    start, end = _index_range(seq, interval)
    if start == end:
        raise DomainError(f"no Farey fraction of level {Q} in {interval}")
    return np.take(seq.denominators, range(start - before, end + after), mode="wrap")


def gauss_reduce_recomputed(u, v):
    """Lagrange-Gauss reduction that recomputes both squared norms and the
    dot product from the entries every iteration: the reference for
    `lattices._gauss_reduce`, which updates them instead."""
    bound = _gauss_bound(u, v)
    for _ in range(bound):
        nu, nv = u[0] * u[0] + u[1] * u[1], v[0] * v[0] + v[1] * v[1]
        if nv < nu:
            u, v, nu = v, (-u[0], -u[1]), nv
        mu = (2 * (u[0] * v[0] + u[1] * v[1]) + nu) // (2 * nu)  # the nearest integer
        if mu == 0:
            return u, v
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
    raise RuntimeError(f"Gauss reduction did not finish in {bound} iterations")


def shortest_vector_length(basis):
    """Sup-norm length of the shortest nonzero vector of the lattice the basis
    spells; after Gauss reduction the minimizer has coefficients in [-2, 2]^2."""
    lat = _Lattice(basis)
    (x1, y1), (x2, y2) = _gauss_reduce(*lat.cols)
    dn, dd = lat.delta
    # the sup norm of (x, delta y) over the denominator dd D
    norm = min(max(dd * abs(m * x1 + n * x2), dn * abs(m * y1 + n * y2))
               for m in range(-2, 3) for n in range(-2, 3) if m or n)
    return lat.ratio(norm, dd * lat.d)  # at most 1, by Minkowski's theorem


def normalized_gaps_whole(Q: int, interval) -> np.ndarray:
    """normalized_gaps as one formula over the whole window: the reference
    the blocked statistic must match bit for bit."""
    lo, hi = _as_interval(interval)
    w = whole_window(Q, interval)
    return (3 / math.pi**2) * float(hi - lo) * Q * Q / (w[:-1].astype(float) * w[1:])


def index_values_whole(Q: int, interval) -> np.ndarray:
    """index_values over the whole window, with the exact-division check
    done by the integer remainder."""
    w = whole_window(Q, interval, before=1)
    qi, nu = w[1:-1], w[:-2] + w[2:]
    if (nu % qi).any():
        raise RuntimeError("index identity (q_{i-1}+q_{i+1}) | q_i failed")
    return nu // qi


def empirical_integral_whole(Q: int, interval, G: Callable):
    """rho_{Q,I}(G) with G called once on the whole window."""
    x = whole_window(Q, interval) / Q
    return np.mean(G(x[:-1], x[1:])).item()


def moment_sum_whole(Q: int, interval, s: float, t: float) -> float:
    """The real-exponent moment sum as the mean of x^s y^t over the whole window."""
    return empirical_integral_whole(Q, interval, lambda x, y: x**float(s) * y**float(t))


def narrow_embed(p, t):
    """Identify a unit-section point with a <= t with its width-t coordinates.

    Same lattice, second coordinate reduced mod a into (t - a, t].  This is
    the map carrying the first-return dynamics on the strip {a <= t} onto
    the width-t return map.
    """
    a, b = p
    check_section(p)
    if not a <= t:
        raise DomainError(f"first coordinate {a} exceeds the strip width {t}")
    return reduce_to_section(a, b, width=t)[0]


def narrow_first_return(p, t, max_steps: int = 10**7):
    """First return of the BCZ map to the strip {(a, b) in Omega : a <= t}.

    Satisfies t_bcz_step(narrow_embed(p)) = narrow_embed(narrow_first_return(p)):
    strip visits of the unit orbit are exactly the width-t section visits.
    """
    d, ratio, orbit = _orbit(p)
    if not p[0] <= t:
        raise DomainError(f"first coordinate {p[0]} exceeds the strip width {t}")
    limit = t * d
    next(orbit)
    for _, (x, y, _) in zip(range(max_steps), orbit):
        if x <= limit:
            return (ratio(x, d), ratio(y, d))
    raise RuntimeError("no return to the strip within max_steps")


def iterated_period(p) -> int:
    """Minimal P with T^P(p) = p, by stepping the integer orbit of an exact
    point: the reference for `periodic.discrete_period`, whose period
    matrix is then `cocycle(p, P)`.

    Each roof 1/(ab) is at least 1 and one period's roofs add up to the flow
    period l^2/a^2 (slope k/l in lowest terms), so a walk longer than that
    is a fault, not a long orbit.
    """
    a, b, _, _ = check_section(p)
    cap = math.floor(((b / a).denominator / a) ** 2)
    orbit = _orbit(p)[-1]
    start = next(orbit)[:2]
    for steps, (x, y, _) in enumerate(orbit, 1):
        if (x, y) == start:
            return steps
        if steps >= cap:
            raise RuntimeError(f"orbit of {p} did not close within {cap} steps")


def farey_phase_points(p, n: int) -> list:
    """The first n points of the orbit of an exact point p, read off F(Q).

    With D the common denominator of p = (a, b), g = gcd(aD, bD) and
    Q = floor(D/g), T^j(p) = (g q_{i+j}/D, g q_{i+j+1}/D), q running
    cyclically through the denominators of F(Q).  The phase i is the index
    of h/x' in F(Q), where x' = aD/g and h = -(bD/g)^{-1} mod x'.
    """
    a, b = Fraction(p[0]), Fraction(p[1])
    d = math.lcm(a.denominator, b.denominator)
    x, y = int(a * d), int(b * d)
    g = math.gcd(x, y)
    big_q, x1 = d // g, x // g
    h = -pow(y // g, -1, x1) % x1
    seq = farey_orbit(big_q)
    q, num = seq.denominators, seq.numerators
    # neighbours in F(Q) lie at least 1/Q^2 apart: a float search, confirmed exactly
    i = int(np.searchsorted(num / q, h / x1 - 0.5 / big_q**2))
    if (num[i], q[i]) != (h, x1):
        raise RuntimeError(f"{h}/{x1} not found in F({big_q})")
    n_q = len(q)
    return [(Fraction(g * int(q[(i + j) % n_q]), d), Fraction(g * int(q[(i + j + 1) % n_q]), d))
            for j in range(n)]


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


#: the named starts (1, beta) whose slope is a quadratic irrational,
#: beta = (r + sqrt(D))/s given as (r, D, s)
QUADRATIC_STARTS = {"golden": (-1, 5, 2), "sqrt2": (0, 2, 2)}


def quadratic_orbit(name: str, n: int):
    """(indices, points): the kappa itinerary and the first n points of the
    orbit of (1, beta) for a start in QUADRATIC_STARTS, run exactly.

    Every coordinate is u + v beta with integers u, v, and every comparison
    is the sign of A + B sqrt(D), A = s u + r v and B = v, read off the
    integers A^2 and D B^2.  The points are floats within a few ulps of the
    exact ones: a difference of opposite signs is taken as
    (A^2 - D B^2)/(A - B sqrt(D)), which cancels nothing.
    """
    r, D, s = QUADRATIC_STARTS[name]
    root = math.sqrt(D)

    def split(z):
        return s * z[0] + r * z[1], z[1]

    def positive(z):
        A, B = split(z)
        if (A >= 0) == (B >= 0):
            return A + B > 0
        return A > 0 if A * A > D * B * B else B > 0

    def value(z):
        A, B = split(z)
        if (A >= 0) == (B >= 0):
            return (A + B * root) / s
        return (A * A - D * B * B) / (A - B * root) / s

    def rest(k, a, b):  # 1 + a - k b
        return 1 + a[0] - k * b[0], a[1] - k * b[1]

    a, b = (1, 0), (0, 1)
    indices, points = [], []
    for _ in range(n):
        fa, fb = value(a), value(b)
        k = math.floor((1 + fa) / fb)  # a guess, made exact below
        while not positive(rest(k, a, b)):
            k -= 1
        while positive(rest(k + 1, a, b)):
            k += 1
        indices.append(k)
        points.append((fa, fb))
        a, b = b, (k * b[0] - a[0], k * b[1] - a[1])
    return indices, points


def excursion_means(start, n: int, record_every: int = 0):
    """(means, history) of `excursion_averages` from the exact orbit of the
    point start spells: Fraction points stepped by `bcz_step`, each term
    rounded once and the terms summed by `math.fsum`."""
    a, b = (Fraction(v) for v in check_section(start)[:2])
    terms = []
    for _ in range(n):
        m = max(a, b, 1 / (a + b))
        terms.append([float(v) for v in (1 / a, a, 1 / m, m)])
        a, b = bcz_step((a, b))
    cols = list(zip(*terms))
    stops = [*range(record_every, n, record_every), n] if record_every else []
    history = [(i, *(math.fsum(c[:i]) / i for c in cols)) for i in stops]
    return [math.fsum(c) / n for c in cols], history


def _handoff(a, b):
    """handoff at a section point whose coordinates are both Fractions or
    both floats."""
    m = peak_length((a, b))
    if m == 1 / (a + b):
        return 1 / (a * (a + b)), m
    if m == a:
        return (1 / a - a) / b, m
    return b / a, m


def vector_length_profile(v, s):
    """Sup-norm of h_s v = (x, y - sx) for a vector v = (x, y) with x > 0.

    As a function of s this is flat at |x| on [sigma - 1, sigma + 1] around
    the slope sigma = y/x, with slope -+|x| outside.
    """
    x, y = v
    if not x > 0:
        raise DomainError("profile requires a positive first coordinate")
    return max(x, abs(y - s * x))
