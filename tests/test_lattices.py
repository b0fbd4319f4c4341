import math
import random
from fractions import Fraction as F

import pytest

from bczmap import lattices
from bczmap.core import DomainError, in_section, t_roof
from bczmap.farey import farey_bruteforce, farey_cardinality
from bczmap.lattices import (
    UnimodularBasis,
    exact_basis,
    first_section_hit,
    gap_distribution,
    has_short_vertical,
    shear_basis,
    shortest_vector_length,
    shortest_vertical_length,
    slope_gaps_via_bcz,
    strip_slopes_bruteforce,
)
from bczmap.measure import roof_region_measure

from conftest import random_section_point

PHI = (1 + math.sqrt(5)) / 2


def random_exact_basis(rng: random.Random, words: int = 6) -> UnimodularBasis:
    """Product of random exact upper/lower shears applied to the identity."""
    m = ((F(1), F(0)), (F(0), F(1)))
    for _ in range(words):
        x = F(rng.randint(-8, 8), rng.randint(1, 8))
        s = ((F(1), x), (F(0), F(1))) if rng.random() < 0.5 else ((F(1), F(0)), (x, F(1)))
        m = (
            (m[0][0] * s[0][0] + m[0][1] * s[1][0], m[0][0] * s[0][1] + m[0][1] * s[1][1]),
            (m[1][0] * s[0][0] + m[1][1] * s[1][0], m[1][0] * s[0][1] + m[1][1] * s[1][1]),
        )
    return UnimodularBasis(m[0][0], m[1][0], m[0][1], m[1][1])


def test_determinant_validation():
    with pytest.raises(ValueError):
        UnimodularBasis(F(1), F(0), F(0), F(2))
    with pytest.raises(ValueError):
        UnimodularBasis(1.0, 0.0, 0.0, 1.0 + 1e-6)
    UnimodularBasis(1.0, 0.0, 0.0, 1.0 + 1e-14)  # within float tolerance


Z2 = UnimodularBasis.identity()


@pytest.mark.parametrize("call", [
    lambda: slope_gaps_via_bcz(Z2, 2, -5),
    lambda: gap_distribution(Z2, 2, 0, 1, 2),
    lambda: gap_distribution(Z2, 2, 5, 1, 0),
    lambda: first_section_hit(Z2, 0),
    lambda: first_section_hit(Z2, -1),
    lambda: first_section_hit(Z2, math.inf),
    lambda: first_section_hit(Z2, F(1, 3)),  # vertically short
    lambda: strip_slopes_bruteforce(Z2, 0, 6),
    lambda: strip_slopes_bruteforce(Z2, 1, math.inf),
    lambda: UnimodularBasis(1.0, math.inf, 0.0, 1.0),  # determinant nan
], ids=["gaps n<0", "distribution n=0", "distribution c>d", "hit t=0", "hit t<0",
        "hit t=inf", "hit short", "bruteforce t=0", "bruteforce slope_max=inf", "nan det"])
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def _fibonacci_basis(m: int) -> UnimodularBasis:
    """[[F(m + 1), F(m)], [F(m), F(m - 1)]], determinant 1 for even m."""
    f = [0, 1]
    while len(f) < m + 2:
        f.append(f[-1] + f[-2])
    return UnimodularBasis(f[m + 1], f[m], f[m], f[m - 1])


def test_gauss_reduction_cap_raises(monkeypatch):
    basis = _fibonacci_basis(20)
    assert shortest_vector_length(basis) == 1  # the lattice is Z^2
    monkeypatch.setattr(lattices, "_GAUSS_MAX_ITER", 5)
    with pytest.raises(RuntimeError, match="5 iterations"):
        shortest_vector_length(basis)


def test_vertical_detection():
    ident = UnimodularBasis.identity()
    assert shortest_vertical_length(ident) == 1
    assert has_short_vertical(ident, 1)
    assert has_short_vertical(ident, F(1, 2))  # threshold 1/t grows as t shrinks
    assert not has_short_vertical(ident, 2)
    # basis of (1/Q, 1): shortest vertical is (0, Q)
    for Q in (2, 3, 5):
        b = exact_basis(F(1, Q), 0, 1, Q)
        assert shortest_vertical_length(b) == Q
        assert not has_short_vertical(b, 1)
        assert has_short_vertical(b, F(1, Q))
    # float basis with incommensurable-looking columns: assumed no verticals
    rot = UnimodularBasis(1.0, 0.0, math.sqrt(2), 1.0)
    assert shortest_vertical_length(rot) is None
    assert not has_short_vertical(rot, 1)


def test_vertical_detection_hidden_combination():
    # vertical vector only appears as a combination: columns (2, 1), (1, 1)
    # give 2m + n = 0 at (m, n) = (1, -2), i.e. the vector (0, -1)
    b = exact_basis(2, 1, 1, 1)
    assert shortest_vertical_length(b) == 1
    assert has_short_vertical(b, 1)


def test_shortest_vector_length():
    assert shortest_vector_length(UnimodularBasis.identity()) == 1
    rng = random.Random(40)
    for _ in range(50):
        a, b = random_section_point(rng, max_den=30)
        basis = exact_basis(a, 0, b, 1 / F(a))
        assert shortest_vector_length(basis) == a


def test_strip_slopes_identity():
    s = strip_slopes_bruteforce(UnimodularBasis.identity(), 1, 7)
    assert s.slopes == [0, 1, 2, 3, 4, 5, 6, 7]
    assert s.gaps == [1] * 7


def test_strip_slopes_scaled_lattice_are_farey():
    # columns (1/Q, 0), (0, Q): slopes in the unit strip are Q^2 * F(Q)
    Q = 4
    basis = exact_basis(F(1, Q), 0, 0, Q)
    got = strip_slopes_bruteforce(basis, 1, Q * Q).slopes
    expected = sorted({f * Q * Q for f in farey_bruteforce(Q).fractions()} | {Q * Q})
    assert got == expected


def test_first_hit_examples():
    assert first_section_hit(exact_basis(1, 0, 1, 1), 1) == (0, (1, 1))
    assert first_section_hit(exact_basis(F(1, 5), 0, 1, 5), 1) == (0, (F(1, 5), 1))


def test_first_hit_vertically_short_refused():
    # columns (1, 0), (0, 1) shrunk: lattice 2Z x Z/2 has vertical (0, 1/2)
    b = exact_basis(2, 0, 0, F(1, 2))
    with pytest.raises(ValueError):
        first_section_hit(b, 1)


def test_first_hit_postconditions_random():
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        basis = random_exact_basis(rng)
        if has_short_vertical(basis, 1) and shortest_vertical_length(basis) < 1:
            continue
        s1, p = first_section_hit(basis, 1)
        assert s1 >= 0
        assert in_section(p)
        # h_{s1} basis contains the horizontal vector (a, 0) exactly
        a = p[0]
        found = False
        for x, y, m, n in _strip(basis, 1, s1 + 1):
            if x == a and y - s1 * x == 0:
                found = True
        assert found
        checked += 1


def _strip(basis, t, y_max):
    from bczmap.lattices import _strip_vectors

    return list(_strip_vectors(basis, t, y_max))


def test_bcz_vs_bruteforce_random_bases():
    rng = random.Random(42)
    checked = 0
    while checked < 8:
        basis = random_exact_basis(rng)
        sv = shortest_vertical_length(basis)
        if sv is not None and sv < 1:
            continue
        n = 1000 if checked < 3 else 200
        via = slope_gaps_via_bcz(basis, 1, n)
        brute = strip_slopes_bruteforce(basis, 1, via.slopes[-1])
        m = min(len(via.slopes), len(brute.slopes))
        assert m > n // 2
        assert via.slopes[:m] == brute.slopes[:m]
        checked += 1


def test_gaps_are_roofs_and_bounded_below():
    basis = shear_basis(F(5, 8))
    t = F(2)
    series = slope_gaps_via_bcz(basis, t, 300)
    s1, p = first_section_hit(basis, t)
    from bczmap.core import t_bcz_step

    for g in series.gaps:
        assert g == t_roof(p, t)
        assert g >= 1 / (t * t)
        p = t_bcz_step(p, t)


def test_farey_basis_gap_cycle():
    # the lattice of (1/Q, 1): gaps cycle with period N(Q) and sum to Q^2
    Q = 7
    basis = UnimodularBasis.from_section_point((F(1, Q), F(1)))
    n = farey_cardinality(Q)
    series = slope_gaps_via_bcz(basis, 1, 2 * n)
    assert series.gaps[:n] == series.gaps[n:]
    assert sum(series.gaps[:n]) == Q * Q


def test_z2_wide_strip_periodicity():
    # slopes of Z^2 in a width-t strip repeat with period N(floor(t))
    t = 7
    n0 = farey_cardinality(t)
    series = slope_gaps_via_bcz(UnimodularBasis.identity(), t, 3 * n0)
    gaps = series.gaps
    assert all(gaps[i] == gaps[i + n0] for i in range(len(gaps) - n0))
    # and not with any smaller declared period of the same kind
    assert any(gaps[i] != gaps[i + n0 - 1] for i in range(len(gaps) - n0 + 1))


def test_fractional_width_same_slopes_as_floor():
    # Z^2 vectors have integer x, so widths 7 and 7.5 see identical slopes
    ident = UnimodularBasis.identity()
    n = 2 * farey_cardinality(7)
    a = slope_gaps_via_bcz(ident, 7, n)
    b = slope_gaps_via_bcz(ident, F(15, 2), n)
    assert a.slopes == b.slopes


def test_gap_distribution_windows():
    basis = UnimodularBasis(1.0, 0.0, PHI, 1.0)
    assert gap_distribution(basis, 1.0, 2000, 0, math.inf) == 1.0
    assert gap_distribution(basis, 1.0, 2000, 0, 1.0) == 0.0  # roofs >= 1
    frac = gap_distribution(basis, 1.0, 2 * 10**5, 1.0, 2.0)
    assert abs(frac - roof_region_measure(1.0, 2.0).value) < 2e-2


def test_gap_distribution_distinct_on_periodic():
    # periodic lattice: with multiplicity the proportion weights repeats,
    # as a set each value counts once
    ident = UnimodularBasis.identity()
    n0 = farey_cardinality(5)
    dup = gap_distribution(ident, 5, 10 * n0, 0.5, math.inf)
    dis = gap_distribution(ident, 5, 10 * n0, 0.5, math.inf, distinct=True)
    assert 0 <= dis <= 1 and 0 <= dup <= 1
    with pytest.raises(ValueError):
        gap_distribution(ident, 5, 10, 2, 1)


def test_golden_shear_basis_point():
    basis = shear_basis(F.from_float(PHI))
    s1, p = first_section_hit(basis, 1)
    assert s1 == 0
    assert p[0] == 1 and abs(float(p[1]) - (PHI - 1)) < 1e-15
