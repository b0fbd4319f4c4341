"""BCZ first-return map of horocycle flow on the space of unimodular lattices.

Farey sequences as periodic orbits, gap/index/moment statistics with their
exact limits, cusp-excursion averages, and slope gaps of lattice vectors.

Names load on first use: `import bczmap` imports none of its modules, and
the first `bczmap.<name>` (or `from bczmap import <name>`) imports the one
module that defines it.
"""

__version__ = "0.1.0"

#: every exported name, by the module that defines it
_EXPORTS = {
    "core": (
        "DomainError", "DriftError", "IntMatrix2", "OrbitTrace", "bcz_step", "cocycle",
        "in_section", "kappa", "orbit_trace", "reduce_to_section", "roof",
    ),
    "excursions": (
        "ExcursionAverages", "ExcursionTrace", "excursion_averages", "excursion_trace",
        "handoff", "named_start", "peak_length",
    ),
    "farey": (
        "FareySequence", "counting_bound_check", "empirical_integral", "farey_bruteforce",
        "farey_cardinality", "farey_orbit", "h_spacing_proportion", "index_values",
        "interval_count", "moment_sum", "orbit_flow_period", "spacing_proportion",
    ),
    "lattices": (
        "SlopeGapSeries", "UnimodularBasis", "first_section_hit", "slope_gaps_via_bcz",
        "strip_slopes_bruteforce",
    ),
    "measure": (
        "RegionMeasureResult", "excursion_integrals", "hall_cdf", "hall_kinks",
        "kappa_moment", "moment_integral", "roof_cdf", "roof_integral",
        "roof_region_measure", "tile_measure",
    ),
    "periodic": (
        "PeriodicOrbitReport", "continuous_period", "discrete_period", "hierarchy_report",
        "orbit_report", "periodic_matrix", "shear_conjugation_check",
    ),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines an exported name, and keep the name."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return __all__
