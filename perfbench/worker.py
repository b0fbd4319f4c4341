"""Run one pass of a benchmark workload in a fresh interpreter.

Reads {"workload", "tasks", "trace"} as JSON on stdin and prints one JSON
result on stdout.  Tasks run one after another: a closed loop with one
client.  A task's latency covers its calls into bczmap and nothing else;
every correctness check runs after the loop, outside the timed region.

With tracing on, each call into a bczmap module is wrapped in a span
(name, task, start, end) held in memory and returned with the result.
Step and call counts are kept either way, since the end-to-end throughput
metrics need them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from calibration import calibration_slice

perf = time.perf_counter


class Recorder:
    """Spans (only when tracing) and counts of one pass."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.task = -1
        self.spans: list = []
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def _timed(self, name):
        t0 = perf()
        try:
            yield
        finally:
            self.spans.append((name, self.task, t0, perf()))

    def span(self, name):
        return self._timed(name) if self.trace else contextlib.nullcontext()

    def count(self, name, n=1):
        self.counts[name] += n


def _interval(spec):
    if spec is None:
        return (0, 1)
    return (Fraction(spec[0]), Fraction(spec[1]))


def _point(spec):
    return tuple(Fraction(x) if isinstance(x, str) else x for x in spec)


# -- farey-stats ---------------------------------------------------------------

class FareyState:
    """Levels this process has visited, to tell first calls from repeats."""

    def __init__(self):
        self.levels: dict = {}
        self.numerated: set = set()


def _level(bz, rec, st, Q, interval):
    first = Q not in st.levels
    with rec.span("farey.orbit_first" if first else "farey.orbit_repeat"):
        seq = bz.farey_orbit(Q)
    if first:
        st.levels[Q] = seq
        rec.count("farey.fractions_generated", len(seq))
    if interval != (0, 1) and Q not in st.numerated:
        with rec.span("farey.numerators"):
            seq.numerators
        st.numerated.add(Q)
    rec.count("farey.fractions_analysed", len(seq))
    return seq


def _length(interval):
    return float(interval[1] - interval[0])


def farey_task(bz, rec, st, t):
    kind, Q = t["kind"], t["Q"]
    if kind == "oracle":
        return None  # checked after the loop
    if kind == "flow":
        _level(bz, rec, st, Q, (0, 1))
        with rec.span("farey.flow_period"):
            return bz.orbit_flow_period(Q), Q * Q
    interval = _interval(t["interval"])
    _level(bz, rec, st, Q, interval)
    L = _length(interval)
    rec.count("farey.stats_calls")
    if kind == "gaps":
        with rec.span("farey.stats"):
            v = bz.spacing_proportion(Q, interval, t["c"], t["d"])
        with rec.span("measure.closed_form"):
            lim = bz.hall_cdf(t["d"], L) - bz.hall_cdf(t["c"], L)
    elif kind == "hgaps":
        with rec.span("farey.stats"):
            v = bz.h_spacing_proportion(Q, interval, [tuple(w) for w in t["box"]])
        c, d = t["box"][0]
        # limit of the first component alone: an upper bound for h > 1
        with rec.span("measure.closed_form"):
            lim = bz.hall_cdf(d, L) - bz.hall_cdf(c, L)
    elif kind == "index":
        with rec.span("farey.stats"):
            nu = bz.index_values(Q, interval)
        v = float((nu.astype(float) ** t["alpha"]).mean())
        with rec.span("measure.closed_form"):
            lim = bz.kappa_moment(t["alpha"])
    elif kind == "moments":
        with rec.span("farey.stats"):
            v = bz.moment_sum(Q, interval, t["s"], t["t"])
        with rec.span("measure.closed_form"):
            lim = bz.moment_integral(t["s"], t["t"])
    elif kind == "excursion":
        if t["which"] == "min":
            def G(a, b):
                return np.minimum(np.minimum(1 / a, 1 / b), a + b)
        else:
            def G(a, b):
                return np.maximum(np.maximum(a, b), 1 / (a + b))
        with rec.span("farey.stats"):
            v = bz.empirical_integral(Q, interval, G)
        with rec.span("measure.closed_form"):
            lo, hi = bz.excursion_integrals()
        lim = lo if t["which"] == "min" else hi
    elif kind == "count":
        with rec.span("farey.stats"):
            v = bz.interval_count(Q, interval)
            bound_ok = bz.counting_bound_check(Q, interval)
        lim = (3 / math.pi**2) * L * Q * Q
        return v, lim, bound_ok
    else:
        raise ValueError(f"unknown farey-stats task {kind!r}")
    return v, lim


def _farey_tolerance(kind, Q, L):
    # The discrepancy of F(Q) on an interval of length L decays like
    # log(Q)/(L Q).  Over 4,896 seeded tasks (seeds 1-40 tiny, 1-8 full) the
    # worst error was a third of these tolerances.
    base = 2.0 * math.log(Q) / (L * Q)
    return 6 * base if kind == "index" else base


def farey_check(bz, rec, t, out, outputs, tasks):
    kind, Q = t["kind"], t["Q"]
    if kind == "oracle":
        orbit, brute = bz.farey_orbit(Q), bz.farey_bruteforce(Q)
        return (orbit.denominators.tolist() == brute.denominators.tolist()
                and orbit.numerators.tolist() == brute.numerators.tolist())
    if kind == "flow":
        return out[0] == out[1]
    L = _length(_interval(t["interval"]))
    tol = _farey_tolerance(kind, Q, L)
    if kind == "hgaps":
        return out[0] <= out[1] + tol and (len(t["box"]) > 1 or abs(out[0] - out[1]) <= tol)
    if kind == "count":
        return out[2] and abs(out[0] / out[1] - 1) <= tol
    return abs(out[0] - out[1]) <= tol * max(1.0, abs(out[1]))


# -- exact-orbits --------------------------------------------------------------

def exact_task(bz, rec, st, t):
    kind = t["kind"]
    if kind == "trace":
        with rec.span("core.exact"):
            return bz.orbit_trace(_point(t["p"]), t["n"])
    if kind == "cocycle":
        with rec.span("core.exact"):
            return bz.cocycle(_point(t["p"]), t["n"])
    if kind == "period":
        with rec.span("periodic.discrete_period"):
            return bz.discrete_period(_point(t["p"]))
    if kind in ("report", "matrix"):
        with rec.span("periodic.report"):
            if kind == "report":
                return bz.orbit_report(_point(t["p"]))
            return bz.periodic_matrix(_point(t["p"]))
    if kind == "hierarchy":
        with rec.span("periodic.hierarchy"):
            return bz.hierarchy_report(t["q_max"])
    if kind == "slopes":
        basis = bz.lattices.shear_basis(Fraction(t["shear"]))
        width = Fraction(t["t"])
        with rec.span("lattices.first_hit"):
            hit = bz.first_section_hit(basis, width)
        with rec.span("lattices.bcz_gaps"):
            series = bz.slope_gaps_via_bcz(basis, width, t["n"])
        return hit, series
    raise ValueError(f"unknown exact-orbits task {kind!r}")


#: the per-layer counter that holds each task kind's BCZ steps; etrace
#: steps count only toward the workload's bcz_steps
STEP_COUNTER = {
    "trace": "core.exact_steps", "cocycle": "core.exact_steps",
    "period": "periodic.period_steps", "report": "periodic.period_steps",
    "matrix": "periodic.period_steps", "hierarchy": "periodic.period_steps",
    "slopes": "lattices.gap_steps", "fslopes": "lattices.gap_steps",
    "ftrace": "core.float_steps", "etrace": None,
    "averages": "excursions.averages_steps",
}


def _steps(bz, t, out):
    """BCZ steps a finished task asked for: its n, or the periods it returned."""
    kind = t["kind"]
    if kind == "period":
        return out
    if kind == "report":
        return out.discrete_period
    if kind == "matrix":
        return bz.periodic.predicted_period(_point(t["p"]))
    if kind == "hierarchy":
        # hierarchy_report finds each period at six points (five samples and t = 1)
        return sum(6 * r["period"] for r in out)
    if kind == "averages":
        return out[0].steps
    return t["n"]


def exact_check(bz, rec, t, out, outputs, tasks):
    kind = t["kind"]
    p = _point(t["p"]) if "p" in t else None
    if kind in ("trace", "cocycle"):
        # T^n(p) two ways: one more step after the trace, and p . M^T
        other = next(i for i, u in enumerate(tasks)
                     if u.get("pair") == t["pair"] and u["kind"] != kind)
        tr, m = (out, outputs[other]) if kind == "trace" else (outputs[other], out)
        return (len(tr.points) == t["n"] and tr.points[0] == p
                and m.det() == 1 and m.act_on_point(p) == bz.bcz_step(tr.points[-1]))
    if kind in ("period", "report", "matrix"):
        expected = bz.periodic.predicted_period(p)
        seg = bz.periodic.segment_matrix(t["k"], t["l"])
        if kind == "period":
            return out == expected
        if kind == "matrix":
            return out == seg
        a = Fraction(t["p"][0])
        return (out.discrete_period == expected and out.matrix == seg
                and out.continuous_period == Fraction(t["l"] ** 2) / (a * a))
    if kind == "hierarchy":
        sizes = [len(bz.farey_bruteforce(Q)) for Q in range(1, t["q_max"] + 2)]
        return [r["Q"] for r in out] == list(range(1, t["q_max"] + 1)) and all(
            r["period"] == sizes[i] and r["jump_to_next"] == sizes[i + 1] - sizes[i]
            for i, r in enumerate(out))
    if kind == "slopes":
        (s1, _), series = out
        basis = bz.lattices.shear_basis(Fraction(t["shear"]))
        with rec.span("lattices.bruteforce"):
            brute = bz.strip_slopes_bruteforce(basis, Fraction(t["t"]), series.slopes[-1])
        return (series.slopes[0] == s1 and len(series.gaps) == t["n"]
                and brute.slopes == series.slopes)
    return False


# -- float-ergodic -------------------------------------------------------------

PHI = (1 + math.sqrt(5)) / 2


def float_task(bz, rec, st, t):
    kind = t["kind"]
    if kind == "averages":
        with rec.span("excursions.averages"):
            res = bz.excursion_averages(bz.named_start(t["start"]), t["n"])
        rec.count("excursions.repairs", res.repairs)
        with rec.span("measure.closed_form"):
            lim = bz.excursion_integrals()
        return res, lim
    if kind == "fslopes":
        basis = bz.lattices.shear_basis((t["m"] * PHI) % 1.0)
        with rec.span("lattices.first_hit"):
            hit = bz.first_section_hit(basis, 1.0)
        with rec.span("lattices.bcz_gaps"):
            series = bz.slope_gaps_via_bcz(basis, 1.0, t["n"])
        return hit, series
    if kind == "ftrace":
        with rec.span("core.float"):
            return bz.orbit_trace(tuple(t["p"]), t["n"])
    if kind == "etrace":
        with rec.span("excursions.trace"):
            return bz.excursion_trace(tuple(t["p"]), t["n"])
    if kind == "quad":
        rec.count("measure.quadrature_calls")
        which = t["which"]
        if which == "excursion":
            with rec.span("measure.quadrature"):
                q = bz.excursion_integrals("quadrature")
            with rec.span("measure.closed_form"):
                c = bz.excursion_integrals()
        elif which == "roof":
            with rec.span("measure.quadrature"):
                q = (bz.roof_integral("quadrature"),)
            with rec.span("measure.closed_form"):
                c = (bz.roof_integral(),)
        else:
            with rec.span("measure.quadrature"):
                q = (bz.roof_region_measure(t["c"], t["d"], method="quadrature").value,)
            with rec.span("measure.closed_form"):
                c = (bz.roof_region_measure(t["c"], t["d"]).value,)
        return q, c
    raise ValueError(f"unknown float-ergodic task {kind!r}")


#: relative tolerance of the peak Birkhoff averages, by orbit length; the
#: golden orbit is within 1% at 10^6 steps (acceptance criterion 09)
def _birkhoff_tolerance(n):
    return 0.02 if n >= 500_000 else 0.15


def float_check(bz, rec, t, out, outputs, tasks):
    kind = t["kind"]
    if kind == "averages":
        res, (lo, hi) = out
        tol = _birkhoff_tolerance(t["n"])
        return (res.steps == t["n"] and abs(res.peak_reciprocal_mean - lo) <= tol * lo
                and abs(res.peak_mean - hi) <= tol * hi)
    if kind == "fslopes":
        (s1, _), series = out
        basis = bz.lattices.shear_basis((t["m"] * PHI) % 1.0)
        with rec.span("lattices.bruteforce"):
            brute = bz.strip_slopes_bruteforce(basis, 1.0, series.slopes[-1])
        m = min(len(brute.slopes), len(series.slopes))
        # float prefix sums drift by a few ulps of the slope itself
        return (series.slopes[0] == s1 and m >= len(series.slopes) - 1
                and all(abs(a - b) <= 1e-11 * max(1.0, b)
                        for a, b in zip(series.slopes[:m], brute.slopes[:m])))
    if kind in ("ftrace", "etrace"):
        other = next(i for i, u in enumerate(tasks)
                     if u.get("pair") == t["pair"] and u["kind"] != kind)
        tr, ex = (out, outputs[other]) if kind == "ftrace" else (outputs[other], out)
        times = ex.minima_times
        return (ex.count == t["n"] and [p[0] for p in tr.points] == ex.minima_lengths
                and all(bz.in_section(p) for p in tr.points)
                and math.isclose(times[-1], math.fsum(tr.returns[:-1]), rel_tol=1e-9))
    if kind == "quad":
        q, c = out
        return all(abs(a - b) <= 1e-8 for a, b in zip(q, c))
    return False


# -- cli-mix -------------------------------------------------------------------

def cli_task(bz, rec, st, t):
    """One CLI process, as a user runs it."""
    cmd = [sys.executable, "-m", "bczmap", *t["argv"]]
    with rec.span("cli.process"):
        proc = subprocess.run(cmd, capture_output=True, timeout=60)
    rec.count("cli.output_bytes", len(proc.stdout))
    return {"code": proc.returncode, "stdout": proc.stdout}


def cli_in_process(rec, tasks, outputs):
    """Every invocation again through bczmap.cli.main in this process, with
    stdout captured: the cli module's own time, without start-up and import.
    Runs after the timed loop, in traced passes only."""
    from bczmap import cli
    for i, (t, out) in enumerate(zip(tasks, outputs)):
        if out is None:
            continue
        rec.task = i
        buf = io.StringIO()
        with rec.span("cli.main"), contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(t["argv"]))
            except SystemExit as exc:
                code = exc.code
        out["main_code"], out["main_stdout"] = code, buf.getvalue().encode()


def cli_check(bz, rec, t, out, outputs, tasks):
    """False only for a wrong result; a wrong exit code on bad input is a failure
    of the exit-code contract and is reported through `failures`."""
    if t["expect"] != 0:
        return True
    if out["code"] != 0:
        return False
    same = [o["stdout"] for u, o in zip(tasks, outputs) if u["argv"] == t["argv"] and o]
    ok = all(s == out["stdout"] for s in same)
    if "main_stdout" in out:
        ok = ok and out["main_code"] == 0 and out["main_stdout"] == out["stdout"]
    return ok


WORKLOADS = {
    "farey-stats": (farey_task, farey_check),
    "exact-orbits": (exact_task, exact_check),
    "float-ergodic": (float_task, float_check),
    "cli-mix": (cli_task, cli_check),
}


def main() -> int:
    spec = json.load(sys.stdin)
    workload, tasks, trace = spec["workload"], spec["tasks"], spec["trace"]
    run_task, check = WORKLOADS[workload]
    if workload == "cli-mix" and not trace:
        bz = None  # the CLI processes import the package, this one need not
    else:
        import bczmap as bz
        import bczmap.lattices
        import bczmap.periodic
    rec = Recorder(trace)
    st = FareyState() if workload == "farey-stats" else {}
    latencies, outputs, errors, calibration = [], [], [], []
    for i, t in enumerate(tasks):
        rec.task = i
        # one slice before every task and one after the last (see calibration.py)
        calibration.append(calibration_slice())
        t0 = perf()
        try:
            out = run_task(bz, rec, st, t)
        except Exception as exc:  # a task that raises counts as failed
            out = None
            errors.append(f"task {i} {t['kind']}: {type(exc).__name__}: {exc}")
        latencies.append(perf() - t0)
        outputs.append(out)
    calibration.append(calibration_slice())
    if workload == "cli-mix":
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli-mix" and trace:
        cli_in_process(rec, tasks, outputs)
    held = 0
    if workload == "farey-stats":
        held = sum(seq.denominators.nbytes + (seq.numerators.nbytes if Q in st.numerated else 0)
                   for Q, seq in st.levels.items())

    failures = []  # (task index, reason)
    wrong = 0
    for i, (t, out) in enumerate(zip(tasks, outputs)):
        rec.task = i
        if out is None and t["kind"] != "oracle":
            failures.append((i, "raised"))
            wrong += 1
            continue
        try:
            ok = check(bz, rec, t, out, outputs, tasks)
        except Exception as exc:
            errors.append(f"check {i} {t['kind']}: {type(exc).__name__}: {exc}")
            ok = False
        if not ok:
            failures.append((i, "wrong result"))
            wrong += 1
        elif t["kind"] == "cli" and out["code"] != t["expect"]:
            failures.append((i, f"exit {out['code']}, documented {t['expect']}"))
            rec.count("cli.exit_mismatch")
    steps = 0
    for t, out in zip(tasks, outputs):
        if out is not None and t["kind"] in STEP_COUNTER:
            n = _steps(bz, t, out)
            if STEP_COUNTER[t["kind"]]:
                rec.count(STEP_COUNTER[t["kind"]], n)
            steps += n

    timed = [i for i, t in enumerate(tasks) if t["kind"] != "oracle"]
    result = {
        "latencies": [latencies[i] for i in timed],
        "wall_s": sum(latencies[i] for i in timed),
        "calibration": calibration,
        "peak_rss_kb": rss,
        "counts": dict(rec.counts),
        "bcz_steps": steps,
        "held_bytes": held,
        "attempted": len(tasks),
        "failures": failures,
        "wrong": wrong,
        "errors": errors[:20],
        "spans": rec.spans,
    }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
