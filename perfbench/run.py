"""bczmap benchmark: four seeded workloads, timed from outside the package.

    python3 perfbench/run.py --workload farey-stats --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  A run times `import bczmap` in several fresh interpreters
(set-up), half before and half after passes of the workload that run
until --seconds is used up.
A pass is the workload's seeded task list, run in a fresh interpreter by
perfbench/worker.py as a closed loop with one client.  End-to-end metrics
are medians over passes; every pass of a run has the same inputs.  The gated
task times and set-up time are in seconds at a reference host speed (see
calibration.py); raw times are reported beside them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-module metrics, taken from the traced
passes, and the tracing overhead, the ratio of the two walls.  Spans go to
.bench_out/.  --workload all runs every workload in turn.  The last line of
stdout is one JSON object; the lines above it are a readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import inputs
from calibration import CAL_REF_S, normalise

HERE = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 4  # before the passes, and as many again after them
SETUP_SLICES = 10  # calibration slices before and after each import

#: one set-up sample: calibration slices, `import bczmap`, calibration slices;
#: argv[1] is the directory of calibration.py
SETUP_CHILD = f"""
import json, sys
sys.path.insert(0, sys.argv[1])
from calibration import calibration_slice
before = [calibration_slice() for _ in range({SETUP_SLICES})]
import bczmap
print(json.dumps(before + [calibration_slice() for _ in range({SETUP_SLICES})]))
"""

#: the end-to-end metrics of BENCHMARK.json, which every workload reports
END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "task_p50_norm_s": "s", "peak_rss_mb": "MB"}

#: reported with units and sample counts where they apply, but not gated:
#: raw times drift with the host, and the rest are missing or 0 on some workload
EXTRA = {"setup_raw_s": "s", "wall_s": "s", "task_p50_s": "s", "task_p90_s": "s",
         "farey_fractions_per_s": "1/s", "bcz_steps_per_s": "1/s", "failed_ratio": "ratio"}

#: per-module metrics; a module a workload never calls reads 0 there
PER_LAYER = {
    "core.exact_steps": "count", "core.exact_s": "s",
    "core.float_steps": "count", "core.float_s": "s",
    "farey.orbit_first_s": "s", "farey.orbit_repeat_s": "s",
    "farey.fractions_generated": "count", "farey.numerators_s": "s",
    "farey.stats_calls": "count", "farey.stats_s": "s", "farey.flow_period_s": "s",
    "farey.held_bytes_computed": "bytes",
    "periodic.discrete_period_s": "s", "periodic.period_steps": "count",
    "periodic.report_s": "s", "periodic.hierarchy_s": "s",
    "excursions.averages_steps": "count", "excursions.averages_s": "s",
    "excursions.repairs": "count", "excursions.trace_s": "s",
    "lattices.first_hit_s": "s", "lattices.bcz_gaps_s": "s",
    "lattices.gap_steps": "count", "lattices.bruteforce_s": "s",
    "measure.closed_form_s": "s", "measure.quadrature_calls": "count",
    "measure.quadrature_s": "s",
    "measure.import_s": "s", "farey.import_s": "s", "cli.import_s": "s",
    "cli.main_s": "s", "cli.output_bytes": "bytes", "cli.process_s": "s",
    "cli.exit_mismatch": "count",
    "trace.overhead_ratio": "ratio", "host.calibration_s": "s",
}

#: modules whose cumulative `-X importtime` figure is reported, from
#: `import bczmap.cli`; the figure for bczmap.cli includes the package itself
IMPORTS = ("bczmap.measure", "bczmap.farey", "bczmap.cli")


class BenchError(RuntimeError):
    pass


def _child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run(cmd, root, env, timeout, stdin=None):
    proc = subprocess.run(cmd, cwd=root, env=env, input=stdin, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def time_setup(root, env) -> list:
    """(raw, normalised) times for a fresh interpreter to finish `import bczmap`.

    Raw is the child's wall time less its calibration slices; normalised
    scales that by CAL_REF_S over the median slice of the same process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = _run([sys.executable, "-c", SETUP_CHILD, str(HERE)], root, env, 60)
        wall = time.perf_counter() - t0
        slices = json.loads(proc.stdout)
        raw = wall - sum(slices)
        samples.append((raw, raw * CAL_REF_S / statistics.median(slices)))
    return samples


def import_times(root, env, repeats=3) -> dict:
    """Median cumulative import time of IMPORTS, from `python -X importtime`."""
    seen = defaultdict(list)
    for _ in range(repeats):
        err = _run([sys.executable, "-X", "importtime", "-c", "import bczmap.cli"],
                   root, env, 60).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in IMPORTS:
                seen[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {name: statistics.median(seen[name]) for name in IMPORTS}


def run_pass(root, env, workload, tasks, trace) -> dict:
    spec = json.dumps({"workload": workload, "tasks": tasks, "trace": trace})
    proc = _run([sys.executable, str(HERE / "worker.py")], root, env, 150, spec)
    return json.loads(proc.stdout)


def environment(root) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        llc = 0
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git": git_revision(root),
        "llc_bytes": llc or "unknown",
    }


def git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def normalised(p) -> list:
    """A pass's task latencies in seconds at the reference speed."""
    return normalise(p["latencies"], p["calibration"])


def end_to_end(workload, setup, passes) -> dict:
    """Metric name -> (value, sample count, sample label)."""
    lat = [x for p in passes for x in p["latencies"]]
    norm = [normalised(p) for p in passes]
    walls = [p["wall_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    m = {
        "setup_s": (statistics.median(n for _, n in setup), len(setup), "imports"),
        "setup_raw_s": (statistics.median(r for r, _ in setup), len(setup), "imports"),
        "wall_norm_s": (statistics.median(map(sum, norm)), len(walls), "passes"),
        "task_p50_norm_s": (statistics.median(x for n in norm for x in n), len(lat), "tasks"),
        "wall_s": (statistics.median(walls), len(walls), "passes"),
        "task_p50_s": (statistics.median(lat), len(lat), "tasks"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
                        len(passes), "passes"),
        "failed_ratio": (sum(len(p["failures"]) for p in passes) / attempted, attempted, "tasks"),
    }
    if len(lat) >= 100:
        m["task_p90_s"] = (statistics.quantiles(lat, n=10, method="inclusive")[8],
                           len(lat), "tasks")
    if workload == "farey-stats":
        m["farey_fractions_per_s"] = (statistics.median(
            p["counts"]["farey.fractions_analysed"] / p["wall_s"] for p in passes),
            len(passes), "passes")
    if workload in ("exact-orbits", "float-ergodic"):
        m["bcz_steps_per_s"] = (statistics.median(p["bcz_steps"] / p["wall_s"] for p in passes),
                                len(passes), "passes")
    return m


def per_layer(traced, plain, imports) -> dict:
    """Medians over the traced passes of span totals and counts."""
    def one(p):
        vals = defaultdict(float)
        for name, _task, t0, t1 in p["spans"]:
            vals[name + "_s"] += t1 - t0
        vals.update(p["counts"])
        vals["farey.held_bytes_computed"] = p["held_bytes"]
        vals["host.calibration_s"] = statistics.mean(p["calibration"])
        return vals
    each = [one(p) for p in traced]
    m = {name: statistics.median(v.get(name, 0) for v in each) for name in PER_LAYER}
    for mod in IMPORTS:
        m[mod.split(".")[1] + ".import_s"] = imports[mod]
    def wall(passes):
        return statistics.median(sum(normalised(p)) for p in passes)
    m["trace.overhead_ratio"] = wall(traced) / wall(plain) - 1
    return m


def run_workload(root, env, workload, seed, seconds, trace, scale):
    tasks = inputs.build(workload, seed, scale)
    digest = hashlib.sha256(json.dumps(tasks, sort_keys=True).encode()).hexdigest()[:16]
    setup = time_setup(root, env)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(root, env, workload, tasks, False))
        if trace:
            traced.append(run_pass(root, env, workload, tasks, True))
        # stop at the pass boundary nearest to the end of the budget
        now = time.perf_counter()
        if now + (now - start) / len(plain) / 2 > start + seconds:
            break
    setup += time_setup(root, env)
    passes = plain + traced
    wrong = sum(p["wrong"] for p in passes)
    report = {
        "workload": workload, "seed": seed, "scale": scale, "trace": trace,
        "passes": len(passes),
        "inputs_sha256": digest, "tasks_per_pass": len(tasks),
        "env": environment(root),
        "end_to_end": end_to_end(workload, setup, plain),
        "setup_samples": setup,
        "pass_walls": [p["wall_s"] for p in plain],
        "pass_latencies": [p["latencies"] for p in plain],
        "pass_calibration": [p["calibration"] for p in plain],
        "failures": [(i, " ".join(tasks[i]["argv"]) if "argv" in tasks[i] else tasks[i]["kind"], why)
                     for p in passes for i, why in p["failures"]],
        "errors": [e for p in passes for e in p["errors"]],
        "farey_working_set_bytes_computed": max(p["held_bytes"] for p in plain),
    }
    if trace:
        report["per_layer"] = per_layer(traced, plain, import_times(root, env))
        report["spans"] = [p["spans"] for p in traced]
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    (out / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report))
    return report, {
        "correct": wrong == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
    }


def print_report(report) -> None:
    env = report["env"]
    print(f"workload {report['workload']}  seed {report['seed']}  scale {report['scale']}"
          f"  trace {int(report['trace'])}  inputs sha256:{report['inputs_sha256']}"
          f"  ({report['tasks_per_pass']} tasks per pass)")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items())
          + f"  farey_working_set_bytes_computed={report['farey_working_set_bytes_computed']}")
    units = {**END_TO_END, **EXTRA}
    for name, (value, n, label) in report["end_to_end"].items():
        print(f"  {name:<24} {value:>14.6g} {units[name]:<6} n={n} {label}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<28} {value:>14.6g} {PER_LAYER[name]}")
    for (i, label, why), n in sorted(Counter(map(tuple, report["failures"])).items()):
        print(f"  failed in {n} of {report['passes']} passes: task {i} ({label}): {why}")
    for e in report["errors"][:12]:
        print(f"  error: {e}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=inputs.SCALES, default="full",
                    help="tiny shrinks every input, for the smoke check")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bczmap" / "__init__.py").is_file():
        print(f"perfbench: no bczmap sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = _child_env(root)
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            results[w] = run_workload(root, env, w, args.seed, args.seconds,
                                      bool(args.trace), args.scale)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for report, _ in results.values():
        print_report(report)
    wanted = PER_LAYER if args.trace else END_TO_END
    prefix = len(names) > 1
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w, (report, counts) in results.items():
        final["correct"] &= counts["correct"]
        final["attempted"] += counts["attempted"]
        final["failed"] += counts["failed"]
        values = report["per_layer"] if args.trace else {
            k: v[0] for k, v in report["end_to_end"].items()}
        for name, unit in wanted.items():
            final["metrics"][f"{w}/{name}" if prefix else name] = {"value": values[name], "unit": unit}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
