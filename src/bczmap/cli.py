"""Command-line front end: every computation as a reproducible CSV/JSON run.

CSV output carries '#'-prefixed metadata lines (command, parameters,
version, seed) above the header row; JSON mirrors the same content as
{"meta": ..., "columns": ..., "rows": ...}.  Identical invocations
(including the seed) produce byte-identical output.

Exit codes: any DomainError (a ValueError), raised by the library or by the
checks here, is bad input and exits 2; anything else exits 1.  `main` is
the only place that maps an exception to an exit code.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import warnings
from fractions import Fraction

from . import __version__
from .core import DomainError, _mat2_mul, check_section, orbit_trace
from .excursions import NAMED_STARTS, excursion_averages, named_start
from .farey import (_as_interval, _check_memory, _gap_histogram, empirical_integral,
                    farey_cardinality, index_values, moment_sum)
from .measure import (MAX_PEAK_INTEGRAL, MIN_PEAK_INTEGRAL, excursion_integrals,
                      hall_cdf, hall_kinks, integrate_over_section, kappa_moment,
                      moment_integral, roof_integral, roof_region_measure,
                      tile_measure, tile_partition_defect)

# `lattices`, `periodic`, `json` and `random` are imported where a command
# needs them, so the other commands load none of them.  `farey` and `measure`
# stay at module level: the benchmark's traced runs time their import lines in
# `python -X importtime -c "import bczmap.cli"`, and fail when one is missing

#: bytes a row of `orbit`, `slopes` or `excursions` holds until printed (157-319 measured)
ROW_BYTES = 320

#: largest integer width t whose Farey period N(t), O(t^{3/4}) steps, `slopes --gaps` prints
FAREY_PERIOD_WIDTH_MAX = 10**6


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv_field(text: str) -> str:
    """RFC 4180: a field holding a comma or a quote is quoted, its quotes doubled."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit(args, command: str, params: dict, columns: list, rows: list) -> None:
    meta = {
        "command": command,
        "params": " ".join(f"{k}={_fmt(v)}" for k, v in params.items()),
        "version": __version__,
        "seed": args.seed if args.seed is not None else "none",
    }
    try:
        out = open(args.output, "w") if args.output else sys.stdout
    except OSError as exc:  # an unwritable path is bad input
        raise DomainError(f"cannot write {args.output}: {exc.strerror}") from exc
    try:
        if args.format == "json":
            import json
            doc = {
                "meta": meta,
                "columns": columns,
                "rows": [[_fmt(v) for v in row] for row in rows],
            }
            json.dump(doc, out, indent=2)
            out.write("\n")
        else:
            for k, v in meta.items():
                out.write(f"# {k}: {v}\n")
            out.write(",".join(map(_csv_field, columns)) + "\n")
            for row in rows:
                out.write(",".join(_csv_field(_fmt(v)) for v in row) + "\n")
    finally:
        if args.output:
            out.close()


def parse_scalar(text: str):
    """'p/q' parses exactly; decimal strings become floats (with a warning)."""
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        if "." in text or "e" in text.lower():
            print(f"warning: {text!r} parsed as float; use p/q for exact runs",
                  file=sys.stderr)
            return float(text)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse scalar {text!r}") from None


def _check_rows(n: int) -> None:
    """Refuse, before iterating, more rows than physical memory holds."""
    _check_memory(ROW_BYTES * n, f"{n} rows of output")


# -- subcommands ---------------------------------------------------------------

def cmd_farey(args) -> None:
    interval = (0, 1) if args.interval is None else \
        _as_interval([parse_scalar(v) for v in args.interval])
    params = {"Q": args.Q, "interval": f"[{_fmt(interval[0])};{_fmt(interval[1])}]",
              "stat": args.stat}
    if args.stat == "gaps":
        lo, hi = args.range
        if not (args.bins >= 1 and -math.inf < lo < hi < math.inf):
            raise DomainError("need --bins >= 1 and a finite --range LO < HI")
        _check_rows(args.bins)
        n, edges, counts = _gap_histogram(args.Q, interval, lo, hi, args.bins)
        params.update(bins=args.bins, range=f"[{lo:g};{hi:g}]", total=n)
        rows = [
            (float(edges[i]), float(edges[i + 1]), int(counts[i]), counts[i] / n)
            for i in range(args.bins)
        ]
        emit(args, "farey", params, ["bin_lo", "bin_hi", "count", "proportion"], rows)
    elif args.stat == "index":
        alpha = args.alpha
        if not math.isfinite(alpha):
            raise DomainError(f"--alpha must be finite, not {alpha}")
        nu = index_values(args.Q, interval)
        import numpy as np
        counts = np.bincount(nu)  # nu takes at most 2Q values, one power each
        k = np.flatnonzero(counts)
        emp = float(counts[k] @ k.astype(float) ** alpha / len(nu))
        limit = kappa_moment(alpha) if 0 < alpha < 2 else float("nan")
        params.update(alpha=alpha)
        rows = [(alpha, emp, limit, len(counts) - 1, 2 * args.Q)]
        emit(args, "farey", params,
             ["alpha", "empirical_moment", "limit", "max_index", "index_bound"], rows)
    elif args.stat == "moments":
        s, t = args.s, args.t
        emp = moment_sum(args.Q, interval, s, t)
        try:
            limit = moment_integral(s, t)
        except DomainError:
            limit = float("nan")
        params.update(s=s, t=t)
        emit(args, "farey", params, ["s", "t", "empirical", "limit"],
             [(s, t, emp, limit)])
    else:  # excursion
        import numpy as np
        mn = empirical_integral(args.Q, interval,
                                lambda a, b: np.minimum(np.minimum(1 / a, 1 / b), a + b))
        mx = empirical_integral(args.Q, interval,
                                lambda a, b: np.maximum(np.maximum(a, b), 1 / (a + b)))
        rows = [("min_stat", mn, MIN_PEAK_INTEGRAL),
                ("max_stat", mx, MAX_PEAK_INTEGRAL)]
        emit(args, "farey", params, ["statistic", "empirical", "limit"], rows)


#: most d-grid points `hall-cdf` builds; the default grid has 301
HALL_GRID_MAX = 10**5


def _arange(start: float, stop: float, step: float) -> list:
    """numpy.arange(start, stop, step) as a list of floats, value for value."""
    delta = (start + step) - start
    return [start] + [start + i * delta for i in range(1, math.ceil((stop - start) / step))]


def cmd_hall_cdf(args) -> None:
    if not (0 < args.step < math.inf and -math.inf < args.d_min <= args.d_max < math.inf):
        raise DomainError("need a finite step > 0 and finite d-max >= d-min")
    if (args.d_max - args.d_min) / args.step + 1 > HALL_GRID_MAX:
        raise DomainError(f"the d-grid would exceed {HALL_GRID_MAX} points; raise --step")
    length = args.interval_length
    k1, k2 = hall_kinks(length)
    grid = _arange(args.d_min, args.d_max + args.step / 2, args.step)
    markers = {round(k1, 15), round(k2, 15)}
    for k in (k1, k2):
        if args.d_min < k < args.d_max:
            grid.append(k)
    grid = sorted(set(float(d) for d in grid))
    params = {"d_min": args.d_min, "d_max": args.d_max, "step": args.step,
              "interval_length": length, "oracle": args.oracle,
              "kink_lo": k1, "kink_hi": k2}
    closed = [hall_cdf(d, length) for d in grid]
    columns = ["d", "cdf", "is_kink"]
    if args.oracle in ("quadrature", "both"):
        def quad_at(d):
            if d <= 0:
                return 0.0
            return roof_region_measure(0, math.pi**2 * d / (3 * length),
                                       method="quadrature").value
        quads = [quad_at(d) for d in grid]
        columns = ["d", "cdf", "quadrature", "abs_diff", "is_kink"]
        rows = [(d, c, q, abs(c - q), int(round(d, 15) in markers))
                for d, c, q in zip(grid, closed, quads)]
    else:
        rows = [(d, c, int(round(d, 15) in markers)) for d, c in zip(grid, closed)]
    emit(args, "hall-cdf", params, columns, rows)


def cmd_orbit(args) -> None:
    a = parse_scalar(args.a)
    b = parse_scalar(args.b)
    if args.periodic:
        from .periodic import orbit_report
        rep = orbit_report((a, b))
        m = rep.matrix
        params = {"a": a, "b": b}
        rows = [(rep.discrete_period, rep.continuous_period, _fmt(rep.slope),
                 m.a11, m.a12, m.a21, m.a22)]
        emit(args, "orbit", params,
             ["period", "flow_period", "slope", "m11", "m12", "m21", "m22"], rows)
        return
    _check_rows(args.n)
    trace = orbit_trace((a, b), args.n)
    rows = [(i, p[0], p[1], r, k)
            for i, (p, r, k) in enumerate(zip(trace.points, trace.returns, trace.indices))]
    emit(args, "orbit", {"a": a, "b": b, "n": args.n},
         ["i", "a", "b", "roof", "kappa"], rows)


def cmd_excursions(args) -> None:
    if args.start is not None:
        # checked, and a float start clamped, in its own flavor: the library
        # runs an exact start's periodic orbit, and warns that its slope is rational
        start = check_section([parse_scalar(v) for v in args.start])[:2]
    else:
        start = named_start(args.slope_irrational)
    record = args.record_every or max(1, args.n // 100)
    _check_rows(-(-args.n // record))  # one row per record_every steps, rounded up
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = excursion_averages(start, args.n, record_every=record)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    params = {"start_a": float(start[0]), "start_b": float(start[1]), "n": args.n,
              "record_every": record, "repairs": res.repairs}
    rows = list(res.history)
    emit(args, "excursions", params, ["n", "a_N", "l_N", "A_N", "L_N"], rows)


def _basis_from_args(args) -> UnimodularBasis:
    from .lattices import UnimodularBasis
    if args.random_basis:
        if args.seed is None:
            raise DomainError("--random-basis requires --seed")
        import random
        rng = random.Random(args.seed)
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(4, 8)):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            shear = ((1, x), (0, 1)) if rng.random() < 0.5 else ((1, 0), (x, 1))
            m = _mat2_mul(m, shear)
        return UnimodularBasis(m[0][0], m[1][0], m[0][1], m[1][1])
    if args.basis is None:
        raise DomainError("provide --basis M11 M12 M21 M22 or --random-basis")
    e = [parse_scalar(v) for v in args.basis]
    return UnimodularBasis(e[0], e[2], e[1], e[3])  # row-major input, column storage


def cmd_slopes(args) -> None:
    from .lattices import slope_gaps_via_bcz, strip_slopes_bruteforce
    basis = _basis_from_args(args)
    if (args.c is None) != (args.d is None) or (args.c is not None and not args.gaps):
        raise DomainError("--c and --d give a gap window: pass both, and --gaps")
    t = parse_scalar(args.t)
    c1, c2 = basis.columns()
    params = {"basis": f"[{_fmt(c1[0])};{_fmt(c2[0])};{_fmt(c1[1])};{_fmt(c2[1])}]",
              "t": t, "n": args.n}
    if args.bruteforce:
        if args.slope_max is None:
            raise DomainError("--bruteforce requires --slope-max")
        series = strip_slopes_bruteforce(basis, t, parse_scalar(args.slope_max))
        params["slope_max"] = args.slope_max
    else:
        _check_rows(args.n)
        series = slope_gaps_via_bcz(basis, t, args.n)
    if args.gaps:
        if t == int(t) <= FAREY_PERIOD_WIDTH_MAX:
            params["farey_period_of_integer_width"] = farey_cardinality(int(t))
        rows = [(i, g) for i, g in enumerate(series.gaps)]
        if args.c is not None:
            if not series.gaps:
                raise DomainError("--c and --d need at least one gap to count")
            inside = sum(1 for g in series.gaps if args.c < g < args.d)
            params.update(c=args.c, d=args.d, fraction_in_window=inside / len(series.gaps),
                          limit_mass=roof_region_measure(
                              float(t) ** 2 * args.c, float(t) ** 2 * args.d).value)
        emit(args, "slopes", params, ["i", "gap"], rows)
    else:
        rows = [(i, s) for i, s in enumerate(series.slopes)]
        emit(args, "slopes", params, ["i", "slope"], rows)


def cmd_periodic(args) -> None:
    from .periodic import _farey_counts, hierarchy_report, segment_matrix, shear_conjugation_check
    if args.hierarchy is not None:
        _check_rows(args.hierarchy)
        recs = hierarchy_report(args.hierarchy)
        rows = [(r["Q"], r["period"], r["jump_to_next"]) for r in recs]
        emit(args, "periodic", {"hierarchy": args.hierarchy},
             ["Q", "period", "jump_to_next"], rows)
        return
    if args.k is None or args.l is None:
        raise DomainError("provide K L or --hierarchy QMAX")
    k, l = args.k, args.l
    m = segment_matrix(k, l)
    _check_rows(k)
    # the r-th row, a in (l/(l + r), l/(l + r - 1)], has the period N(l + r - 1)
    rows = [(r, f"({l}/{l + r};{l}/{l + r - 1}]", n)
            for r, n in enumerate(_farey_counts(l, k), start=1)]
    params = {"k": k, "l": l,
              "matrix": f"[{m.a11};{m.a12};{m.a21};{m.a22}]",
              "shear_conjugation": shear_conjugation_check(k, l)}
    emit(args, "periodic", params, ["r", "a_range", "period"], rows)


def cmd_measure(args) -> None:
    s, t, alpha = args.s, args.t, args.alpha
    # the closed forms refuse bad exponents before any quadrature runs
    b_c = moment_integral(s, t)
    k_c, k_head = kappa_moment(alpha), kappa_moment(alpha, head=4000)
    rows = []
    part = tile_partition_defect(10**5)
    rows.append(("tile_partition_defect", part, 0.0, part))
    ri_c, ri_q = roof_integral(), roof_integral("quadrature")
    rows.append(("roof_integral", ri_c, ri_q, abs(ri_c - ri_q)))
    b_q, _ = integrate_over_section(lambda a, b: a**s * b**t)
    rows.append((f"B({_fmt(s)},{_fmt(t)})", b_c, b_q, abs(b_c - b_q)))
    rows.append((f"kappa_moment({_fmt(alpha)})", k_c, k_head, 0.0))
    eq = excursion_integrals("quadrature")
    rows.append(("min_peak_integral", MIN_PEAK_INTEGRAL, eq[0],
                 abs(MIN_PEAK_INTEGRAL - eq[0])))
    rows.append(("max_peak_integral", MAX_PEAK_INTEGRAL, eq[1],
                 abs(MAX_PEAK_INTEGRAL - eq[1])))
    rows.append(("tile_measure_1", float(tile_measure(1)), 1 / 3, 0.0))
    emit(args, "measure", {"s": s, "t": t, "alpha": alpha},
         ["quantity", "closed_form", "cross_check", "abs_diff"], rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bczmap",
        description="Farey statistics, gap laws, cusp excursions and slope gaps "
                    "through the BCZ return map.",
    )
    parser.add_argument("--version", action="version", version=f"bczmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write to a file instead of stdout")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("farey", help="statistics of the level-Q Farey sequence")
    p.add_argument("Q", type=int)
    p.add_argument("--interval", nargs=2, metavar=("A", "B"))
    p.add_argument("--stat", choices=("gaps", "index", "moments", "excursion"),
                   default="gaps")
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--range", nargs=2, type=float, default=(0.0, 5.0),
                   metavar=("LO", "HI"))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.0)
    common(p)
    p.set_defaults(run=cmd_farey)

    p = sub.add_parser("hall-cdf", help="the limiting gap distribution function")
    p.add_argument("--d-min", type=float, default=0.0)
    p.add_argument("--d-max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--interval-length", type=float, default=1.0)
    p.add_argument("--oracle", choices=("closed-form", "quadrature", "both"),
                   default="closed-form")
    common(p)
    p.set_defaults(run=cmd_hall_cdf)

    p = sub.add_parser("orbit", help="iterate the return map from an exact point")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--periodic", action="store_true",
                   help="report period, flow period and cocycle matrix instead")
    common(p)
    p.set_defaults(run=cmd_orbit)

    p = sub.add_parser("excursions", help="long-run averages of cusp excursions")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--slope-irrational", choices=sorted(NAMED_STARTS))
    g.add_argument("--start", nargs=2, metavar=("A", "B"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--record-every", type=int, default=0)
    common(p)
    p.set_defaults(run=cmd_excursions)

    p = sub.add_parser("slopes", help="slopes/gaps of lattice vectors in a strip")
    p.add_argument("--basis", nargs=4, metavar=("M11", "M12", "M21", "M22"))
    p.add_argument("--random-basis", action="store_true")
    p.add_argument("-t", default="1")
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--gaps", action="store_true", help="emit gaps instead of slopes")
    p.add_argument("--bruteforce", action="store_true")
    p.add_argument("--slope-max")
    p.add_argument("--c", type=float)
    p.add_argument("--d", type=float)
    common(p)
    p.set_defaults(run=cmd_slopes)

    p = sub.add_parser("periodic", help="periodic-orbit structure of a slope segment")
    p.add_argument("k", nargs="?", type=int)
    p.add_argument("l", nargs="?", type=int)
    p.add_argument("--hierarchy", type=int, metavar="QMAX")
    common(p)
    p.set_defaults(run=cmd_periodic)

    p = sub.add_parser("measure", help="closed-form constants with quadrature checks")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=1.0)
    common(p)
    p.set_defaults(run=cmd_measure)

    return parser


def _check_output_dir(path: str) -> None:
    """Refuse, before any work, an output file whose directory is missing,
    with the reason `open` would give; `emit` reports the failures only
    `open` can see."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        why = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
        raise DomainError(f"cannot write {path}: {os.strerror(why)}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            _check_output_dir(args.output)
        args.run(args)
    except DomainError as exc:  # bad input, from the library or the checks here
        parser.error(str(exc))
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal error contract: exit code 1
        print(f"bczmap: internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
