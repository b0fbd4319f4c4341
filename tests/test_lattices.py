import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bczmap import lattices
from bczmap.core import DomainError, bcz_step, in_section, roof
from bczmap.farey import farey_bruteforce, farey_cardinality
from bczmap.lattices import (
    UnimodularBasis,
    first_section_hit,
    shear_basis,
    slope_gaps_via_bcz,
    strip_slopes_bruteforce,
)
from bczmap.measure import roof_region_measure

from conftest import random_rational, random_section_point
from oracles import gauss_reduce_recomputed, shortest_vector_length

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
    lambda: first_section_hit(Z2, 0),
    lambda: first_section_hit(Z2, -1),
    lambda: first_section_hit(Z2, math.inf),
    lambda: first_section_hit(Z2, F(1, 3)),  # vertically short
    lambda: strip_slopes_bruteforce(Z2, 0, 6),
    lambda: strip_slopes_bruteforce(Z2, 1, math.inf),
    lambda: UnimodularBasis(1.0, math.inf, 0.0, 1.0),  # determinant nan
    lambda: first_section_hit(UnimodularBasis(1.0, 0.0, 5e-324, 1.0), 1e-300),  # slope 2^1074
    lambda: slope_gaps_via_bcz(UnimodularBasis(1.0, 0.0, 5e-324, 1.0), 1e-300, 2),
], ids=["gaps n<0", "hit t=0", "hit t<0", "hit t=inf", "hit short", "bruteforce t=0",
        "bruteforce slope_max=inf", "nan det", "hit beyond floats", "gaps beyond floats"])
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
    # the reduction takes about m/2 = 10 steps, within the derived bound
    assert lattices._gauss_bound(*lattices._Lattice(basis).cols) == 2 * 14 + 4
    monkeypatch.setattr(lattices, "_gauss_bound", lambda u, v: 5)
    with pytest.raises(RuntimeError, match="5 iterations"):
        shortest_vector_length(basis)


def test_gauss_reduction_of_long_columns_finishes():
    # 10^4 + 1 steps on 13886-bit entries, past any fixed cap of 10^4
    assert lattices._gauss_reduce(*_fibonacci_columns(20_002)) == ((-1, 0), (0, -1))


def _fibonacci_columns(m: int):
    (x1, y1), (x2, y2) = _fibonacci_basis(m).columns()
    return (int(x1), int(y1)), (int(x2), int(y2))


_ENTRY = st.integers(-2**60, 2**60)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.tuples(_ENTRY, _ENTRY), st.tuples(_ENTRY, _ENTRY)),
                 st.builds(_fibonacci_columns, st.integers(1, 300).map(lambda k: 2 * k))))
@example(_fibonacci_columns(20))
@example(_fibonacci_columns(2002))
def test_gauss_reduction_matches_the_recomputing_loop(cols):
    (x1, y1), (x2, y2) = cols
    assume(x1 * y2 != x2 * y1)  # the columns of a lattice
    assert lattices._gauss_reduce(*cols) == gauss_reduce_recomputed(*cols)


def test_strip_too_large_to_enumerate_is_bad_input(monkeypatch):
    # a width-10^8 strip holds about 10^8 points below the first hit, which
    # the BCZ route reads off without sweeping: the start of F(10^8)
    basis = UnimodularBasis(2, 1, 1, 1)
    assert slope_gaps_via_bcz(basis, 10**8, 3).slopes == [
        0, F(1, 10**8), F(1, 10**8 - 1), F(1, 10**8 - 2)]
    monkeypatch.setattr(lattices, "_STRIP_MAX_POINTS", 10)
    with pytest.raises(DomainError, match="more than 10 lattice points"):
        strip_slopes_bruteforce(basis, 1, 20)


@pytest.mark.parametrize("basis", [
    UnimodularBasis(1.0, 0.5, 0.3, 1.15),
    UnimodularBasis(1.0, 0.0, math.sqrt(2), 1.0),  # no lattice point in the strip at all
])
def test_empty_sweep_lines_count_towards_the_cap(monkeypatch, basis):
    # a width-1e-9 strip up to height 4^10 is about 7e5 sweep lines, nearly all empty
    monkeypatch.setattr(lattices, "_STRIP_MAX_POINTS", 1000)
    with pytest.raises(DomainError, match="sweep lines"):
        _strip(basis, 1e-9, 4**10)


def test_vertically_short_float_lattice_is_refused():
    # the float spelling of columns (1, 1/2), (9, 11/2), whose vertical
    # vector (0, 1) is shorter than 1/t = 2; only exact bases detect it
    with pytest.raises(DomainError, match="vertically short"):
        first_section_hit(UnimodularBasis(1.0, 0.5, 9.0, 5.5), 0.5)


def test_a_later_hit_fails_the_certificate(monkeypatch):
    # 0/1 in place of the true Farey predecessor picks a strip vector of
    # larger slope, whose previous hit then lies at a slope >= 0 too
    true_predecessor = lattices._farey_predecessor

    def later(i, q, n):
        assert true_predecessor(i, q, n) != (0, 1)
        return 0, 1

    monkeypatch.setattr(lattices, "_farey_predecessor", later)
    with pytest.raises(RuntimeError, match="not the first hit"):
        first_section_hit(UnimodularBasis(1.0, 0.5, 0.3, 1.15), 1e-9)


def test_the_first_hit_sweeps_no_strip(monkeypatch):
    def no_sweep(lat, h):
        raise AssertionError("strip swept")

    monkeypatch.setattr(lattices, "_strip_vectors", no_sweep)
    for basis, t in [(Z2, 1), (Z2, F(5, 2)), (UnimodularBasis(1, F(1, 2), 0, 1), 1),
                     (UnimodularBasis(1.0, 0.5, 0.3, 1.15), 1e-9),
                     (UnimodularBasis(F(16, 5), F(4, 5), F(11, 4), 1), 0.25),
                     (UnimodularBasis(1.0, 0.0, PHI, 1.0), 1.0)]:
        hit, _ = first_section_hit(basis, t)
        assert slope_gaps_via_bcz(basis, t, 5).slopes[0] == hit


@settings(max_examples=80, deadline=None)
@given(st.builds(random_exact_basis, st.randoms(use_true_random=False)),
       st.fractions(F(1, 4), 4, max_denominator=8), st.booleans())
@example(Z2, F(1), False)
@example(Z2, F(5, 2), True)
def test_section_point_is_the_second_hit(basis, t, decimal):
    # the section point (x0, b) steps to the hit (b, .), so b is the x of the
    # strip vector with the second-least slope >= 0, found here by sweeping
    lat = lattices._Lattice(basis, float(t) if decimal else t)
    assume(lattices._vertical(lat.cols) * lat.w >= lat.d**2)
    x0, y0, b = lattices._first_hit(lat.cols, lat.w)
    h = 1
    while True:
        found = sorted(lattices._strip_vectors(lat, h), key=lambda v: F(v[1], v[0]))
        # a vector of smaller slope than the second found one has y <= slope * w
        if len(found) >= 2 and found[1][1] * lat.w <= h * found[1][0]:
            break
        h *= 2
    assert found[0] == (x0, y0) and found[1][0] == b


def test_float_strip_vector_on_the_vertical_line_is_skipped():
    # columns (1, 0), (-2/3, 1) hold the vertical vector (0, 3); in floats
    # 2 * 1.0 + 3 * -0.6666666666666666 rounds to 0.0, on the line x = 0
    # that the strip excludes, so the float basis must skip it as the exact one does
    exact = slope_gaps_via_bcz(UnimodularBasis(1, 0, F(-2, 3), 1), F(5, 3), 3)
    spelled = slope_gaps_via_bcz(UnimodularBasis(1.0, 0.0, -0.6666666666666666, 1.0),
                                 1.6666666666666667, 3)
    assert exact.slopes == [0, F(3, 4), F(6, 5), 3]
    assert spelled.slopes == pytest.approx([float(s) for s in exact.slopes], rel=1e-12, abs=1e-12)


def test_vertical_check_takes_the_exact_value_of_a_decimal_width():
    # 0.3333333333333333 is just below 1/3, so the vertical (0, 3) is shorter
    # than 1/t, although 3 * 0.3333333333333333 rounds to 1.0
    with pytest.raises(DomainError, match="^lattice is vertically short"):
        first_section_hit(UnimodularBasis(F(1, 3), 0, 0, 3), 0.3333333333333333)


def _vertical_length(basis) -> F:
    """Length of the shortest vertical vector of the unimodular lattice the
    basis spells, in Fractions: m (x1, y1) + n (x2, y2) for the primitive
    (m, n) with m x1 + n x2 = 0, its y over the spelled determinant."""
    x1, y1, x2, y2 = map(F, basis)
    m, n = (1, 0) if x1 == 0 else (-x2 / x1).as_integer_ratio()
    return abs(m * y1 + n * y2) / (x1 * y2 - x2 * y1)


def _vertically_short(basis, t) -> bool:
    """Whether `first_section_hit` refuses the lattice at width t as vertically short."""
    try:
        first_section_hit(basis, t)
    except DomainError as e:
        if "vertically short" not in str(e):
            raise
        return True
    return False


def test_vertical_detection():
    # refused only below the boundary: a vertical of length exactly 1/t
    # meets the section at its fixed corner
    ident = UnimodularBasis.identity()
    assert _vertical_length(ident) == 1
    assert not _vertically_short(ident, 1)
    assert _vertically_short(ident, F(1, 2))  # threshold 1/t grows as t shrinks
    assert not _vertically_short(ident, 2)
    # basis of (1/Q, 1): shortest vertical is (0, Q)
    for Q in (2, 3, 5):
        b = UnimodularBasis(F(1, Q), 0, 1, Q)
        assert _vertical_length(b) == Q
        assert not _vertically_short(b, 1)
        assert not _vertically_short(b, F(1, Q))
        assert _vertically_short(b, F(1, Q + 1))
    # the double sqrt(2) is k/2^52 with k odd, so the lattice these columns
    # spell has the vertical vector 2^52 (k/2^52, 1) - k (1, 0) = (0, 2^52)
    rot = UnimodularBasis(1.0, 0.0, math.sqrt(2), 1.0)
    assert _vertical_length(rot) == 2**52
    assert not _vertically_short(rot, 1)
    assert _vertically_short(rot, 2.0**-53)


def test_vertical_beyond_the_float_range():
    # the doubles spell the vertical vector (0, 2^1074)
    basis = UnimodularBasis(1.0, 0.0, 5e-324, 1.0)
    assert _vertical_length(basis) == 2**1074
    assert not _vertically_short(basis, 1)
    assert shortest_vector_length(basis) == 1.0


def test_short_vertical_decided_on_integers_agrees_with_lengths():
    rng = random.Random(15)
    for _ in range(1000):
        exact = random_exact_basis(rng, words=4)
        edge = 1 / _vertical_length(exact)  # where the length is 1/t
        for t in (edge, random_rational(rng, F(0), 2 * edge)):
            for width in (t, float(t)):
                assert _vertically_short(exact, width) == (F(width) < edge)


def test_short_vertical_of_a_decimal_basis_is_decided_exactly():
    # the doubles spell a vertical of length 16 (1 + 3/2^57) and the
    # determinant 1 + 3/2^57, so the unimodular lattice they spell has a
    # vertical of length 16 exactly, which 2^-60 more decides
    basis = UnimodularBasis(1.875, -0.7678571428571429, -4.5625, 2.4017857142857144)
    assert _vertical_length(basis) == 16
    assert not _vertically_short(basis, F(1, 16))
    assert _vertically_short(basis, 1 / (16 + F(1, 2**60)))


def test_vertical_detection_hidden_combination():
    # vertical vector only appears as a combination: columns (2, 1), (1, 1)
    # give 2m + n = 0 at (m, n) = (1, -2), i.e. the vector (0, -1)
    b = UnimodularBasis(2, 1, 1, 1)
    assert _vertical_length(b) == 1
    assert not _vertically_short(b, 1)
    assert _vertically_short(b, F(1, 2))


def test_shortest_vector_length():
    assert shortest_vector_length(UnimodularBasis.identity()) == 1
    rng = random.Random(40)
    for _ in range(50):
        a, b = random_section_point(rng, max_den=30)
        basis = UnimodularBasis(a, 0, b, 1 / F(a))
        assert shortest_vector_length(basis) == a


def test_strip_slopes_identity():
    s = strip_slopes_bruteforce(UnimodularBasis.identity(), 1, 7)
    assert s.slopes == [0, 1, 2, 3, 4, 5, 6, 7]
    assert s.gaps == [1] * 7


def test_strip_slopes_scaled_lattice_are_farey():
    # columns (1/Q, 0), (0, Q): slopes in the unit strip are Q^2 * F(Q)
    Q = 4
    basis = UnimodularBasis(F(1, Q), 0, 0, Q)
    got = strip_slopes_bruteforce(basis, 1, Q * Q).slopes
    expected = sorted({f * Q * Q for f in farey_bruteforce(Q).fractions()} | {Q * Q})
    assert got == expected


def test_first_hit_examples():
    assert first_section_hit(UnimodularBasis(1, 0, 1, 1), 1) == (0, (1, 1))
    assert first_section_hit(UnimodularBasis(F(1, 5), 0, 1, 5), 1) == (0, (F(1, 5), 1))


def test_first_hit_vertically_short_refused():
    # columns (1, 0), (0, 1) shrunk: lattice 2Z x Z/2 has vertical (0, 1/2)
    b = UnimodularBasis(2, 0, 0, F(1, 2))
    with pytest.raises(ValueError):
        first_section_hit(b, 1)


def test_first_hit_postconditions_random():
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        basis = random_exact_basis(rng)
        if _vertical_length(basis) < 1:
            continue
        s1, p = first_section_hit(basis, 1)
        assert s1 >= 0
        assert in_section(p)
        # h_{s1} basis contains the horizontal vector (a, 0) exactly
        a = p[0]
        found = False
        for x, y in _strip(basis, 1, s1 + 1):
            if x == a and y - s1 * x == 0:
                found = True
        assert found
        checked += 1


def _strip(basis, t, y_max):
    """The strip vectors of the lattice the basis spells, up to height y_max."""
    lat = lattices._Lattice(basis, t)
    (dn, dd), d = lat.delta, lat.d
    h = math.floor(F(y_max) * d * dd / dn)
    return [(F(x, d), F(dn * y, dd * d)) for x, y in lattices._strip_vectors(lat, h)]


#: at width 3/2 its strip holds the slopes 1/4 and 3/4 up to slope 1
QUARTERS_BASIS = UnimodularBasis(F(4, 3), F(1, 3), F(3, 2), F(9, 8))


@settings(max_examples=60)
@given(st.builds(random_exact_basis, st.randoms(use_true_random=False)),
       st.integers(1, 24), st.sampled_from([1, 2, 4, 8]),
       st.fractions(0, 4, max_denominator=4), st.fractions(0, 4, max_denominator=4))
@example(QUARTERS_BASIS, 3, 2, F(1), F(4))
def test_bruteforce_at_a_dyadic_decimal_width(basis, num, den, s_lo, s_hi):
    # a dyadic decimal width is exactly its p/q spelling, so it selects the
    # same vectors; and a larger slope_max only appends slopes
    t = F(num, den)
    s_lo, s_hi = sorted((s_lo, s_hi))
    exact = [float(s) for s in strip_slopes_bruteforce(basis, t, s_hi).slopes]
    decimal = strip_slopes_bruteforce(basis, float(t), s_hi).slopes
    assert decimal == exact
    assert strip_slopes_bruteforce(basis, float(t), s_lo).slopes == [
        s for s in decimal if s <= s_lo]


def test_bruteforce_slopes_follow_the_flavor_rule():
    assert strip_slopes_bruteforce(QUARTERS_BASIS, F(3, 2), 1).slopes == [F(1, 4), F(3, 4)]
    series = strip_slopes_bruteforce(QUARTERS_BASIS, 1.5, 1)
    assert series.slopes == [0.25, 0.75] and all(type(s) is float for s in series.slopes)
    assert series.gaps == [0.5] and type(series.gaps[0]) is float


def test_decimal_slope_bound_is_compared_at_its_exact_value():
    # 0.3 is 0.29999999999999998889..., just below the slope 3/10 of (10, 3)
    assert strip_slopes_bruteforce(Z2, 10, 0.3).slopes[-1] == F(2, 7)
    assert strip_slopes_bruteforce(Z2, 10, F(3, 10)).slopes[-1] == F(3, 10)


def test_bcz_vs_bruteforce_random_bases():
    rng = random.Random(42)
    checked = 0
    while checked < 8:
        basis = random_exact_basis(rng)
        if _vertical_length(basis) < 1:
            continue
        n = 1000 if checked < 3 else 200
        via = slope_gaps_via_bcz(basis, 1, n)
        brute = strip_slopes_bruteforce(basis, 1, via.slopes[-1])
        m = min(len(via.slopes), len(brute.slopes))
        assert m > n // 2
        assert via.slopes[:m] == brute.slopes[:m]
        checked += 1


def _float_spelling(basis: UnimodularBasis):
    """The decimal spelling of an exact basis, or None where its float
    determinant strays past the tolerance."""
    try:
        return UnimodularBasis(*(float(v) for v in (basis.x1, basis.y1, basis.x2, basis.y2)))
    except DomainError:
        return None


def _spelled_exact_bases(rng, t):
    # only lattices whose exact spelling has a vertical vector longer than
    # 1/t: on the line x = 1/t a spelled strip point can fall just outside
    exact = random_exact_basis(rng, words=4)
    return _float_spelling(exact) if _vertical_length(exact) * t > 1 else None


def _irrational_shear(m, r):
    return shear_basis((m * r) % 1.0)


#: exact and decimal widths from 1/60 to 12
WIDTHS = st.one_of(st.fractions(F(1, 60), 12, max_denominator=60),
                   st.fractions(F(1, 60), 12, max_denominator=60).map(float))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.builds(random_exact_basis, st.randoms(use_true_random=False),
                           st.integers(1, 10)),
                 st.builds(_irrational_shear, st.integers(1, 60), st.just(PHI))),
       WIDTHS, st.integers(1, 12), st.booleans(), st.just(True))
@example(Z2, F(5, 2), 3, False, True)  # slope-0 hit: the horizontal (1, 0) fits the strip
@example(Z2, 1, 3, False, True)  # the vertical (0, 1) is 1/t long: the boundary case
@example(UnimodularBasis(1, F(1, 2), 0, 1), 1, 3, False, True)  # ... with a hit at slope 1/2
@example(UnimodularBasis(1.0, 0.5, 0.3, 1.15), 1e-9, 3, False, False)  # too tall to enumerate
def test_first_hit_is_the_least_enumerated_slope(basis, t, n, spell, oracle):
    # the Farey predecessor against the strip enumerator; without the
    # oracle only the hit's certificate, which runs on every call, checks it
    if spell:
        # a spelled vertical shorter than 1/t turns into a strip vector of
        # slope about 1e16, too tall to enumerate
        assume(isinstance(basis.x1, F) and _vertical_length(basis) * F(t) > 1)
        basis = _float_spelling(basis)
        assume(basis is not None)
    if _vertical_length(basis) * F(t) < 1:
        with pytest.raises(DomainError, match="vertically short"):
            first_section_hit(basis, t)
        return
    hit, _ = first_section_hit(basis, t)
    via = slope_gaps_via_bcz(basis, t, n)
    assert via.slopes[0] == hit
    if not oracle:
        return
    brute = strip_slopes_bruteforce(basis, t, via.slopes[-1]).slopes
    assert brute[0] == hit
    # a rounded last slope may lie below the exact one
    assert len(brute) >= len(via.slopes) - (type(hit) is float)
    assert via.slopes[:len(brute)] == brute


@settings(max_examples=100)
@given(st.data(), st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3, 10)]), st.integers(1, 60))
def test_decimal_basis_bcz_slopes_are_its_enumerated_slopes(data, t, n):
    # both routes round the same exact rationals of the lattice the doubles
    # spell once, so they agree bit for bit, not just to float accuracy
    basis = data.draw(st.one_of(
        st.builds(_spelled_exact_bases, st.randoms(use_true_random=False), st.just(t)),
        st.builds(_irrational_shear, st.integers(1, 60),
                  st.sampled_from([PHI, math.sqrt(2), math.e, math.pi]))))
    if basis is None:
        return
    via = slope_gaps_via_bcz(basis, float(t), n)
    brute = strip_slopes_bruteforce(basis, float(t), via.slopes[-1])
    m = min(len(via.slopes), len(brute.slopes))
    assert m >= len(via.slopes) - 1  # the rounded last slope may lie below the exact one
    assert via.slopes[:m] == brute.slopes[:m] and via.gaps[:m - 1] == brute.gaps[:m - 1]
    assert all(type(s) is float for s in via.slopes + via.gaps)


def test_gaps_are_roofs_and_bounded_below():
    basis = shear_basis(F(5, 8))
    t = F(2)
    series = slope_gaps_via_bcz(basis, t, 300)
    s1, p = first_section_hit(basis, t)
    for g in series.gaps:
        assert g == roof(p, t)
        assert g >= 1 / (t * t)
        p = bcz_step(p, t)


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
    # the share of gaps in (c, d) tends to m(R^{-1}(c, d)); roofs are >= 1
    gaps = slope_gaps_via_bcz(UnimodularBasis(1.0, 0.0, PHI, 1.0), 1.0, 2 * 10**5).gaps
    assert min(gaps) >= 1.0
    frac = sum(1 for g in gaps if 1.0 < g < 2.0) / len(gaps)
    assert abs(frac - roof_region_measure(1.0, 2.0).value) < 2e-2


def test_golden_shear_basis_point():
    basis = shear_basis(F.from_float(PHI))
    s1, p = first_section_hit(basis, 1)
    assert s1 == 0
    assert p[0] == 1 and abs(float(p[1]) - (PHI - 1)) < 1e-15
