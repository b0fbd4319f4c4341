"""The public surface of `import bczmap`: the names a command, the benchmark
or the README uses, each resolved on first use, and records that keep their
fields, reprs and checks as named tuples.  The paper identities and lengths
that only the tests check live in tests/oracles.py."""

import inspect
import sys
from fractions import Fraction as F

import pytest

import bczmap

EXPORTS = [
    "DomainError", "DriftError", "ExcursionAverages", "ExcursionTrace", "FareySequence",
    "IntMatrix2", "OrbitTrace", "PeriodicOrbitReport", "RegionMeasureResult", "SlopeGapSeries",
    "UnimodularBasis", "bcz_step", "cocycle", "continuous_period", "counting_bound_check",
    "discrete_period", "empirical_integral", "excursion_averages", "excursion_integrals",
    "excursion_trace", "farey_bruteforce", "farey_cardinality", "farey_orbit",
    "first_section_hit", "h_spacing_proportion", "hall_cdf", "hall_kinks", "handoff",
    "hierarchy_report", "in_section", "index_values", "interval_count", "kappa", "kappa_moment",
    "moment_integral", "moment_sum", "named_start", "orbit_flow_period", "orbit_report",
    "orbit_trace", "peak_length", "periodic_matrix", "reduce_to_section", "roof", "roof_cdf",
    "roof_integral", "roof_region_measure", "shear_conjugation_check", "slope_gaps_via_bcz",
    "spacing_proportion", "strip_slopes_bruteforce", "tile_measure",
]


def test_the_export_list_is_unchanged():
    assert sorted(bczmap.__all__) == EXPORTS
    assert sorted(dir(bczmap)) == EXPORTS
    assert bczmap.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_the_object_its_module_defines(name):
    value = getattr(bczmap, name)
    assert value.__module__.startswith("bczmap.")
    assert getattr(sys.modules[value.__module__], name) is value
    assert vars(bczmap)[name] is value  # kept after the first lookup


def test_star_import_binds_every_export():
    namespace = {}
    exec("from bczmap import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTS
    assert all(namespace[name] is getattr(bczmap, name) for name in EXPORTS)


def test_the_width_t_maps_are_the_unit_maps():
    # one function per quantity: the width t is the last argument, and its
    # default 1 is the unit section, as the README documents
    for f in (bczmap.kappa, bczmap.roof, bczmap.bcz_step, bczmap.in_section,
              bczmap.reduce_to_section, bczmap.first_section_hit):
        width = list(inspect.signature(f).parameters.values())[-1]
        assert width.name in ("t", "width") and width.default == 1, f.__name__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bczmap.no_such_name
    assert not hasattr(bczmap, "_mat2_mul")  # defined in core, but not exported
    with pytest.raises(ImportError):
        exec("from bczmap import no_such_name", {})


RECORDS = {
    "OrbitTrace": (("points", "returns", "indices"),
                   lambda: bczmap.orbit_trace((F(1, 3), 1), 2),
                   "OrbitTrace(points=[(Fraction(1, 3), Fraction(1, 1)), (Fraction(1, 1), "
                   "Fraction(2, 3))], returns=[Fraction(3, 1), Fraction(3, 2)], indices=[1, 3])"),
    "ExcursionTrace": (("minima_times", "minima_lengths", "maxima_times", "maxima_lengths"),
                       lambda: bczmap.excursion_trace((F(1, 3), 1), 2),
                       "ExcursionTrace(minima_times=[Fraction(0, 1), Fraction(3, 1)], "
                       "minima_lengths=[Fraction(1, 3), Fraction(1, 1)], maxima_times="
                       "[Fraction(3, 1), Fraction(3, 1)], maxima_lengths=[Fraction(1, 1), "
                       "Fraction(1, 1)])"),
    "ExcursionAverages": (("alpha_mean", "length_mean", "peak_reciprocal_mean", "peak_mean",
                           "steps", "repairs", "history"),
                          lambda: bczmap.ExcursionAverages(2.0, 0.5, 1.0, 1.0, 3, 0),
                          "ExcursionAverages(alpha_mean=2.0, length_mean=0.5, "
                          "peak_reciprocal_mean=1.0, peak_mean=1.0, steps=3, repairs=0, "
                          "history=[])"),
    "SlopeGapSeries": (("width", "slopes", "gaps"),
                       lambda: bczmap.slope_gaps_via_bcz(bczmap.UnimodularBasis(1, 0, 0, 1), 2, 3),
                       "SlopeGapSeries(width=2, slopes=[Fraction(0, 1), Fraction(1, 2), "
                       "Fraction(1, 1), Fraction(3, 2)], gaps=[Fraction(1, 2), Fraction(1, 2), "
                       "Fraction(1, 2)])"),
    "RegionMeasureResult": (("value", "method", "estimated_error"),
                            lambda: bczmap.roof_region_measure(0.1, 0.5),
                            "RegionMeasureResult(value=0.0, method='closed-form', "
                            "estimated_error=0.0)"),
    "PeriodicOrbitReport": (("point", "slope", "discrete_period", "continuous_period", "matrix"),
                            lambda: bczmap.orbit_report((F(1, 3), 1)),
                            "PeriodicOrbitReport(point=(Fraction(1, 3), 1), slope=Fraction(3, 1), "
                            "discrete_period=4, continuous_period=Fraction(9, 1), "
                            "matrix=IntMatrix2(a11=-2, a12=1, a21=-9, a22=4))"),
    "IntMatrix2": (("a11", "a12", "a21", "a22"),
                   lambda: bczmap.IntMatrix2(-2, 1, -9, 4),
                   "IntMatrix2(a11=-2, a12=1, a21=-9, a22=4)"),
    "UnimodularBasis": (("x1", "y1", "x2", "y2"),
                        lambda: bczmap.UnimodularBasis(1, 0, 0.5, 1),
                        "UnimodularBasis(x1=1.0, y1=0.0, x2=0.5, y2=1.0)"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_their_fields_and_repr(name):
    fields, make, text = RECORDS[name]
    record = make()
    assert type(record) is getattr(bczmap, name)
    assert record._fields == fields
    assert repr(record) == text
    with pytest.raises(AttributeError):  # records are read-only, as the frozen ones were
        setattr(record, fields[0], None)


def test_records_are_tuples():
    # deliberate: a record equals the plain tuple of its fields
    assert bczmap.IntMatrix2(1, 0, 0, 1) == (1, 0, 0, 1)
    assert bczmap.RegionMeasureResult(0.5, "closed-form", 0.0) == (0.5, "closed-form", 0.0)


def test_excursion_trace_count_is_its_number_of_minima():
    trace = bczmap.excursion_trace((F(1, 3), 1), 5)
    assert trace.count == 5 == len(trace.minima_times)


def test_excursion_averages_history_defaults_to_a_new_list():
    a = bczmap.ExcursionAverages(2.0, 0.5, 1.0, 1.0, 3, 0)
    b = bczmap.ExcursionAverages(2.0, 0.5, 1.0, 1.0, 3, 0)
    assert a.history == [] and a.history is not b.history
    assert bczmap.ExcursionAverages(2.0, 0.5, 1.0, 1.0, 3, 0, [(1,)]).history == [(1,)]


def test_int_matrix_hashes_by_value_and_checks_its_determinant():
    m = bczmap.IntMatrix2(2, 1, 1, 1)
    assert m == bczmap.IntMatrix2(2, 1, 1, 1) and hash(m) == hash(bczmap.IntMatrix2(2, 1, 1, 1))
    assert len({m, bczmap.IntMatrix2(2, 1, 1, 1), bczmap.IntMatrix2(1, 0, 0, 1)}) == 2
    with pytest.raises(ValueError, match="determinant 3 != 1"):
        bczmap.IntMatrix2(2, 1, 1, 2)
    with pytest.raises(ValueError, match="determinant 2 != 1"):
        m._replace(a11=3)  # a copy is checked as a new matrix is


def test_unimodular_basis_applies_the_flavor_rule_and_checks_its_determinant():
    exact = bczmap.UnimodularBasis(1, 0, F(1, 2), 1)
    assert all(type(v) is F for v in exact)
    assert all(type(v) is float for v in bczmap.UnimodularBasis(1, 0, 0.5, 1))
    assert all(type(v) is float for v in exact._replace(x2=0.5))
    with pytest.raises(bczmap.DomainError, match="determinant 2 != 1"):
        bczmap.UnimodularBasis(2, 0, 0, 1)
    with pytest.raises(bczmap.DomainError, match="not within"):
        bczmap.UnimodularBasis(2.0, 0, 0, 1)
