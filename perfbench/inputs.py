"""Seeded inputs for the bczmap benchmark workloads.

Pure Python with no bczmap import: run.py builds every task list here
from the workload seed, and the worker receives only that list.  The seed
picks parameters and order; the number of tasks of each kind and their
size ranges are fixed, so the cost of a pass barely depends on the seed.
Exact scalars travel as "p/q" strings.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("farey-stats", "exact-orbits", "float-ergodic", "cli-mix")
SCALES = ("full", "tiny")


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _interval(rng: random.Random, whole: bool):
    """None (the whole of [0, 1]) or a seeded sub-interval of length >= 1/5."""
    if whole:
        return None
    i = rng.randint(0, 32)
    j = rng.randint(8, 40 - i)
    return [_fr(Fraction(i, 40)), _fr(Fraction(i + j, 40))]


def _window(rng: random.Random):
    c = round(rng.uniform(0.0, 1.2), 4)
    return [c, round(c + rng.uniform(0.4, 1.6), 4)]


def _farey_task(rng: random.Random, kind: str, Q: int, j: int) -> dict:
    """The j-th task of one kind at level Q.  Every third runs on the whole
    interval (counts always take a sub-interval), so the mix is the same for
    every seed."""
    t = {"kind": kind, "Q": Q}
    if kind != "flow":
        t["interval"] = _interval(rng, j % 3 == 0 and kind != "count")
    if kind == "gaps":
        t["c"], t["d"] = _window(rng)
    elif kind == "hgaps":
        t["box"] = [_window(rng)] + [[0.0, round(rng.uniform(1.0, 3.0), 4)] for _ in range(j % 3)]
    elif kind == "index":
        t["alpha"] = round(rng.uniform(0.5, 1.5), 4)
    elif kind == "moments":
        t["s"] = round(rng.uniform(-0.5, 2.0), 4)
        t["t"] = round(rng.uniform(-0.5, 2.0), 4)
    elif kind == "excursion":
        t["which"] = ("min", "max")[j % 2]
    return t


def farey_stats(rng: random.Random, tiny: bool) -> list:
    levels = (60, 90, 120) if tiny else (1000, 2000, 3000)
    tasks = []
    for base in levels:
        Q = base + rng.randint(0, 4 if tiny else 20)
        kinds = (("gaps", 10), ("hgaps", 6), ("index", 5), ("moments", 5),
                 ("excursion", 5), ("count", 3), ("flow", 1))
        for kind, count in kinds:
            for j in range(count):
                tasks.append(_farey_task(rng, kind, Q, j))
    rng.shuffle(tasks)
    # Each level's first visit comes first, in ascending order, on a
    # sub-interval: generation and numerator recovery then happen at the same
    # points of every pass, and so does the memory peak they set.
    for n, Q in enumerate(sorted({t["Q"] for t in tasks})):
        i = next(i for i, t in enumerate(tasks) if t["Q"] == Q and t.get("interval"))
        tasks.insert(n, tasks.pop(i))
    # the orbit-versus-enumeration check runs once per pass, after the loop
    tasks.append({"kind": "oracle", "Q": rng.randint(20, 40) if tiny else rng.randint(100, 200)})
    return tasks


def _section_point(rng: random.Random, den_lo: int, den_hi: int):
    """Exact (i/D, j/D) with i, j <= D and i + j > D."""
    D = rng.randint(den_lo, den_hi)
    i = rng.randint(1, D)
    j = rng.randint(D - i + 1, D)
    return [_fr(Fraction(i, D)), _fr(Fraction(j, D))]


def _coprime(rng: random.Random, l_lo: int, l_hi: int):
    """Coprime 1 <= k <= l with l in [l_lo, l_hi]."""
    while True:
        l = rng.randint(l_lo, l_hi)
        k = rng.randint(1, l)
        if math.gcd(k, l) == 1:
            return k, l


def _slope_point(rng: random.Random, l_lo: int, l_hi: int):
    """Coprime k <= l and a point (a, a k/l) of the section with rational a."""
    k, l = _coprime(rng, l_lo, l_hi)
    # a in the top tenth of its segment keeps the period N(floor(l/a)) near N(l)
    M = rng.randint(40, 80)
    lo = M * l // (l + k) + 1
    a = Fraction(rng.randint(max(lo, M - (M - lo) // 10), M), M)
    return {"p": [_fr(a), _fr(a * k / l)], "k": k, "l": l}


def exact_orbits(rng: random.Random, tiny: bool) -> list:
    tasks = []
    n_lo, n_hi = (20, 40) if tiny else (880, 920)
    for pair in range(4 if tiny else 30):
        p = _section_point(rng, 40, 80)
        n = rng.randint(n_lo, n_hi)
        tasks.append({"kind": "trace", "p": p, "n": n, "pair": pair})
        tasks.append({"kind": "cocycle", "p": p, "n": n, "pair": pair})
    l_lo, l_hi = (3, 8) if tiny else (26, 30)
    # 30 shorter tasks below 60 trace and cocycle ones put the median task in
    # the middle of the cocycle block, where its time barely depends on the seed
    for kind, count in (("period", 8), ("report", 5), ("matrix", 5)):
        for _ in range(2 if tiny else count):
            tasks.append({"kind": kind, **_slope_point(rng, l_lo, l_hi)})
    for _ in range(2 if tiny else 4):
        tasks.append({"kind": "hierarchy", "q_max": rng.randint(3, 5) if tiny else rng.randint(10, 11)})
    for _ in range(3 if tiny else 8):
        shear = Fraction(rng.randint(0, 29), rng.randint(2, 30))
        t = Fraction(rng.randint(2, 6), 2)  # widths 1 to 3: no vertical vector is too short
        tasks.append({"kind": "slopes", "shear": _fr(shear), "t": _fr(t),
                      "n": rng.randint(10, 20) if tiny else rng.randint(200, 240)})
    rng.shuffle(tasks)
    return tasks


def float_ergodic(rng: random.Random, tiny: bool) -> list:
    tasks = []
    for name in ("golden", "sqrt2", "e") * (1 if tiny else 2):
        tasks.append({"kind": "averages", "start": name,
                      "n": rng.randint(2000, 3000) if tiny else rng.randint(900_000, 1_000_000)})
    for _ in range(2 if tiny else 4):
        tasks.append({"kind": "fslopes", "m": rng.randint(1, 12),
                      "n": rng.randint(50, 100) if tiny else rng.randint(1900, 2100)})
    for pair in range(2 if tiny else 10):
        a = rng.uniform(0.05, 1.0)
        p = [a, rng.uniform(1.0 - a, 1.0)]
        n = rng.randint(100, 200) if tiny else rng.randint(9500, 10500)
        tasks.append({"kind": "ftrace", "p": p, "n": n, "pair": pair})
        tasks.append({"kind": "etrace", "p": p, "n": n, "pair": pair})
    tasks.append({"kind": "quad", "which": "excursion"})
    tasks.append({"kind": "quad", "which": "roof"})
    # few short tasks, so the median task falls among the traces
    for _ in range(2 if tiny else 4):
        c = round(rng.uniform(0.5, 4.0), 4)
        tasks.append({"kind": "quad", "which": "region", "c": c,
                      "d": round(c + rng.uniform(0.5, 20.0), 4)})
    rng.shuffle(tasks)
    return tasks


#: malformed invocations whose documented exit code is 2; the first six
#: exit 1 (or 0) on the seed commit and count as failed operations
def _malformed(rng: random.Random) -> list:
    a = round(rng.uniform(0.2, 0.45), 2)
    return [
        ["slopes", "--basis", "1", "0", "0", "1", "-t", f"1/{rng.randint(2, 5)}"],
        ["farey", "1", "--stat", "index"],
        ["excursions", "--start", str(a), str(round(rng.uniform(0.1, 0.9 - a), 2)), "-n", "5"],
        ["farey", "3", "--output", ".bench_out/missing/x.csv"],
        ["slopes", "--basis", "1", "0", "0", "1", "-t", f"{rng.randint(1, 9)}e400"],
        ["orbit", "1/2", "7/10", "-n", str(-rng.randint(1, 9))],
        ["farey", "0"],
        ["periodic", "2", str(2 * rng.randint(2, 9))],
    ]


def cli_mix(rng: random.Random, tiny: bool) -> list:
    # narrow size ranges: the largest farey level sets the peak memory
    def q(lo, hi):
        return str(rng.randint(lo // 10, hi // 10) if tiny else rng.randint(lo, hi))

    a, b = _section_point(rng, 3, 9)
    sp = _slope_point(rng, 2, 5)["p"]
    valid = [
        ["orbit", a, b, "-n", str(rng.randint(10, 40))],
        ["orbit", *sp, "--periodic"],
        ["farey", q(950, 1000), "--stat", "gaps", "--bins", str(rng.randint(20, 80))],
        ["farey", q(950, 1000), "--stat", "index", "--alpha", str(round(rng.uniform(0.5, 1.5), 2))],
        ["farey", q(950, 1000), "--stat", "excursion", "--format", "json"],
        ["hall-cdf", "--d-max", "3", "--step", str(rng.choice([0.2, 0.25, 0.3])), "--oracle", "both"],
        ["excursions", "--slope-irrational", rng.choice(["golden", "sqrt2", "e"]), "-n", q(20_000, 40_000)],
        ["slopes", "--basis", "1", "0", "0", "1", "-t", str(rng.randint(3, 8)), "--gaps", "-n", q(50, 150)],
        ["slopes", "--random-basis", "--seed", "7", "-t", "1", "-n", q(50, 100)],
        ["periodic", *map(str, _coprime(rng, 1, 9))],
        ["periodic", "--hierarchy", str(rng.randint(4, 8))],
        ["measure", "--s", str(rng.randint(0, 2)), "--t", str(rng.randint(0, 2)),
         "--alpha", str(round(rng.uniform(0.5, 1.5), 2))],
    ]
    # two invocations run twice: every run of one argv must print the same bytes
    valid += rng.sample(valid, 2)
    tasks = [{"kind": "cli", "argv": v, "expect": 0} for v in valid]
    tasks += [{"kind": "cli", "argv": v, "expect": 2} for v in _malformed(rng)]
    rng.shuffle(tasks)
    return tasks


_GENERATORS = {
    "farey-stats": farey_stats,
    "exact-orbits": exact_orbits,
    "float-ergodic": float_ergodic,
    "cli-mix": cli_mix,
}


def build(workload: str, seed: int, scale: str = "full") -> list:
    """The task list of one pass; the same (workload, seed, scale) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, scale == "tiny")
