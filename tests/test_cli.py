import ast
import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bczmap import cli, core, lattices
from bczmap.cli import main
from bczmap.farey import farey_cardinality
from test_farey import _fake_memory

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    """(metadata, header, rows) of CSV output; quoted fields follow RFC 4180."""
    meta, table = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        else:
            table.append(line)
    header, *rows = csv.reader(table)
    return meta, header, rows


def test_orbit_csv(capsys):
    code, out, _ = run_cli(capsys, ["orbit", "1/5", "1", "-n", "12"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["command"] == "orbit" and meta["version"]
    assert header == ["i", "a", "b", "roof", "kappa"]
    assert len(rows) == 12
    assert rows[0][1:] == ["1/5", "1", "5", "1"]
    assert rows[10][1:] == rows[0][1:]  # period 10


def test_orbit_periodic_report(capsys):
    code, out, _ = run_cli(capsys, ["orbit", "1", "2/3", "--periodic"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert rows == [["4", "9", "2/3", "-5", "9", "-4", "7"]]


def test_periodic_answers_step_no_orbit(capsys, monkeypatch):
    # periods, matrices and the hierarchy are closed forms: with the integer
    # orbit and the cocycle product broken they still answer, even where the
    # period, N(10^6) = 303963552392 steps, is far beyond iteration
    def refuse(*args):
        raise AssertionError("the map was iterated")
    monkeypatch.setattr(core, "_int_orbit", refuse)
    monkeypatch.setattr(core, "cocycle", refuse)
    code, out, _ = run_cli(capsys, ["orbit", "1/1000000", "1", "--periodic"])
    assert code == 0
    assert parse_csv(out)[2][0][0] == str(farey_cardinality(10**6)) == "303963552392"
    for argv in (["periodic", "--hierarchy", "20"], ["periodic", "3", "1000"]):
        assert run_cli(capsys, argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["orbit", f"1/{2**70}", "1", "--periodic"])
    assert exc.value.code == 2


def test_orbit_fixed_point(capsys):
    code, out, _ = run_cli(capsys, ["orbit", "1", "1", "-n", "1"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows == [["0", "1", "1", "1", "2"]]


def test_orbit_domain_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "1/2", "1/2"])
    assert exc.value.code == 2


def test_validation_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["farey", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_a_closed_stdout_ends_quietly(capsys, monkeypatch):
    # `bczmap orbit ... | head -0`: nothing is left to print to, which is no error
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["orbit", "1/5", "1", "-n", "12"])
    assert (code, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize("argv", [
    ["farey", "1", "--stat", "index"],  # indices need Q >= 2
    ["farey", "3", "--output", "{tmp}/missing/x.csv"],  # unwritable output path
])
def test_farey_bad_input_exit_2(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("output, why", [
    ("missing/x.csv", errno.ENOENT),  # refused before the command runs
    ("file/x.csv", errno.ENOTDIR),  # the directory is a regular file
    (".", errno.EISDIR),  # only `open` sees this one, in `emit`
])
def test_unwritable_output_names_its_cause(capsys, tmp_path, output, why):
    (tmp_path / "file").touch()
    with pytest.raises(SystemExit) as exc:
        main(["farey", "3", "--output", str(tmp_path / output)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": {os.strerror(why)}\n")


@pytest.mark.parametrize("argv", [
    "slopes --basis 1 0 0 1 -t 1/3",  # vertically short lattice
    "slopes --basis 1 0 0 1 -t 9e400",  # infinite width
    "slopes --basis 1 0 0 1 -t 2 -n -5",
    "slopes --basis 1 0 0 1 -t 2 --gaps -n 5 --c 1 --d 0",
    "slopes --basis 1 0 0 1 -t 1 -n 3 --c 0.5",  # a gap window needs --gaps ...
    "slopes --basis 1 0 0 1 -t 1 -n 3 --c 0.5 --d 1",
    "slopes --basis 1 0 0 1 -t 1 -n 3 --gaps --d 1",  # ... and both ends
    "slopes --basis 1 0 0 1 -t 1 -n 0 --gaps --c 0.5 --d 2",  # ... and a gap to count
    "slopes --basis 1 0 0 1 -t 1 --bruteforce --slope-max 0 --gaps --c 0 --d 1",  # one slope
    "excursions --start 0.3 0.4 -n 5",  # start outside the section
    "excursions --start 1/2 1/2 -n 3",  # ... exactly on its edge a + b = 1
    "orbit 1/2 7/10 -n -3",
    "farey 3 --stat gaps --interval 2/7 3/10",  # no fraction of F(3) selected
    "farey 3 --stat excursion --interval 2/7 3/10",
    "farey 3 --stat index --interval 2/7 3/10",
    "farey 5 --range 5 1",
    "farey 5 --bins 0",
    "measure --s -2",
    "measure --alpha nan",  # refused by the closed forms before any quadrature
    "measure --alpha 3",
    "measure --t inf",
    "periodic --hierarchy 1",
    "periodic --hierarchy 1000000000000",  # 10^12 rows, refused before any count
    "farey 50 --stat moments --s nan",  # non-finite exponents
    "farey 50 --stat moments --s inf",
    "farey 50 --stat index --alpha nan",
    "farey 50 --stat index --alpha inf",
    "hall-cdf --step 1e-9",  # d-grids too large to build
    "hall-cdf --d-max 1e300 --step 1",
    "slopes -t 2",  # no basis
    "slopes --basis 1 0 0 1 --bruteforce",  # no --slope-max
    "periodic",  # no K L and no --hierarchy
])
def test_bad_input_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    f"farey {2**70}",  # requests too large to hold, refused before allocating
    f"periodic 1 {2**70}",
    f"orbit 1/{2**70} 1 --periodic",
    "slopes --basis 2 1 1 1 -t 100000000 --bruteforce --slope-max 1",  # more strip points than the cap
    "slopes --basis 1 5e-324 0 1 -t 1e-300 -n 3",  # the hit time 2^1074 is no float
    "excursions --start 1 1e-320 -n 5",  # the float index (1 + a)/b overflows
    "slopes --basis 1.0 9.0 0.5 5.5 -t 0.5 -n 3",  # vertically short, in floats
    "slopes --basis 1/3 0 0 3 -t 0.3333333333333333 -n 3",  # ... below the decimal's 1/t
])
def test_requests_beyond_the_library_range_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "internal error" not in capsys.readouterr().err


#: (calls of 1000 rows, calls of 1001 rows) for the rows' memory check
ROWS = [
    ("orbit 1/5 1 -n 1000", "orbit 1/5 1 -n 1001"),
    ("slopes --basis 1 0 0 1 -t 25 -n 1000", "slopes --basis 1 0 0 1 -t 25 -n 1001"),
    ("slopes --basis 1 0 0 1 -t 25 --gaps -n 1000", "slopes --basis 1 0 0 1 -t 25 --gaps -n 1001"),
    ("excursions --slope-irrational golden -n 2000 --record-every 2",
     "excursions --slope-irrational golden -n 2001 --record-every 2"),
]


@pytest.mark.parametrize("fits, refused", ROWS)
def test_rows_beyond_memory_are_refused_before_iterating(capsys, monkeypatch, fits, refused):
    _fake_memory(monkeypatch, cli.ROW_BYTES * 1000)
    assert main(fits.split()) == 0
    with pytest.raises(SystemExit) as exc:
        main(refused.split())
    assert exc.value.code == 2
    assert "1001 rows of output" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "orbit 1/5 1 -n 1000000000000",
    "slopes --basis 1 0 0 1 -t 25 -n 1000000000000",
    "excursions --slope-irrational golden -n 1000000000000 --record-every 1",
    "farey 60 --stat gaps --bins 1000000000000",
    "periodic 1000000000000 1000000000001",  # refused before N(10^12) is counted
])
def test_huge_row_counts_exit_2_at_once(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "rows of output" in capsys.readouterr().err


def test_orbit_next_to_the_cusp_stays_in_the_section(capsys):
    code, out, _ = run_cli(capsys, ["orbit", "1.0", "1e-300", "-n", "4"])
    assert code == 0
    rows = parse_csv(out)[2]
    assert [r[1:3] for r in rows] == [["1", "1e-300"], ["1e-300", "1"], ["1", "1"], ["1", "1"]]
    assert [r[4] for r in rows[1:]] == ["1", "2", "2"]


def test_a_float_start_just_off_the_section_runs_the_point_it_was_accepted_as(capsys):
    # (0.5, 1.0000000005) is accepted as (0.5, 1), whose orbit has period 2
    code, out, _ = run_cli(capsys, ["orbit", "0.5", "1.0000000005", "-n", "3"])
    assert code == 0
    rows = parse_csv(out)[2]
    assert [r[1:3] + r[4:] for r in rows] == [
        ["0.5", "1", "1"], ["1", "0.5", "4"], ["0.5", "1", "1"]]
    code, out, _ = run_cli(capsys, ["excursions", "--start", "0.5", "1.0000000005",
                                    "-n", "4", "--record-every", "1"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["params"].startswith("start_a=0.5 start_b=1 ")
    assert header[4] == "L_N" and all(float(r[4]) <= 1 for r in rows)


def test_an_exact_excursions_start_warns_of_its_rational_slope(capsys):
    # the library runs the exact start's periodic orbit, the orbit the
    # decimal start runs too, since its doubles spell the same rationals
    code, out, err = run_cli(capsys, ["excursions", "--start", "1/2", "3/4", "-n", "1000"])
    assert code == 0
    assert [line for line in err.splitlines() if "rational slope" in line] == [
        "warning: rational slope: the orbit is periodic, averages converge to orbit "
        "means rather than the space averages"]
    code, decimal_out, err = run_cli(capsys, ["excursions", "--start", "0.5", "0.75",
                                              "-n", "1000"])
    assert code == 0 and decimal_out == out and "rational slope" not in err


def test_a_float_start_inside_the_section_makes_no_repair(capsys):
    # the float test 1 - a < b fails at (0.1, 0.9), which is inside
    _, out, _ = run_cli(capsys, ["excursions", "--start", "0.9", "0.1", "-n", "3"])
    assert " repairs=0" in parse_csv(out)[0]["params"]


def test_slope_gap_window_to_a_huge_bound(capsys):
    # the limit mass m({1 < R < 1e17}) is 1 in floats, with no division by zero
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "2", "1", "1", "1", "-t", "1",
                                    "--gaps", "-n", "5", "--c", "1", "--d", "1e17"])
    assert code == 0
    assert parse_csv(out)[0]["params"].endswith(" limit_mass=1")


#: valid calls, each small; the fuzz swaps one argument of one of them
FUZZ_BASES = [
    "farey 12 --stat gaps --bins 5 --range 0 4 --interval 1/4 3/4",
    "farey 12 --stat index --alpha 1 --interval 1/4 3/4",
    "farey 12 --stat moments --s 1 --t 2 --interval 1/4 3/4",
    "farey 12 --stat excursion --interval 1/4 3/4",
    "hall-cdf --d-min 0 --d-max 3 --step 0.5 --interval-length 1",
    "orbit 1/2 7/10 -n 5",
    "orbit 1 2/3 --periodic",
    "excursions --start 0.5 0.7 -n 50 --record-every 10",
    "slopes --basis 2 1 1 1 -t 2 -n 5 --gaps --c 1 --d 2",
    "slopes --basis 1 0 0 1 -t 1 --bruteforce --slope-max 6",
    "slopes --random-basis --seed 7 -t 1 -n 5",
    "slopes --basis 3 1 1 2/3 -t 2.5 -n 3",  # exact basis, decimal width
    "slopes --basis 1 0 0.5 1 -t 3/2 -n 3 --gaps",  # exact/decimal mix
    "slopes --basis 1.5 0.5 1.0 1.0 -t 1 -n 3",
    "slopes --basis 1 5/3 2 13/3 -t 1.0 -n 2",  # hit at slope 2, on a tile boundary
    "slopes --basis 1 5/3 2 13/3 -t 1.0 --bruteforce --slope-max 3",
    "slopes --basis 1.0 -0.6666666666666666 0.0 1.0 -t 1.6666666666666667 -n 3",  # x rounds to 0.0
    "slopes --basis 16/5 11/4 4/5 1 -t 0.25 -n 3",  # hit point on a tile edge
    "slopes --basis 1.0 0.3 0.5 1.15 -t 1e-9 -n 3",  # hit at slope 9e24, far above any sweep
    "slopes --basis 1.0 1.6666666666666667 2.0 4.333333333333333 -t 1.0 -n 4",  # tile branch
    "periodic 2 3",
    "periodic --hierarchy 4",
    "measure --s 1 --t 0 --alpha 1",
]
HOSTILE = ["0", "-3", "1/0", "9e400", "-1/2"]
#: reversed, empty in F(12), and a single point
HOSTILE_INTERVALS = [("3/4", "1/4"), ("1/14", "1/13"), ("1/3", "1/3")]
NON_COPRIME = [("2", "4"), ("6", "9"), ("3", "3")]


def _hostile_variants(base: str) -> list:
    """base with one argument swapped for a hostile value; an interval and
    the pair K L each count as one argument."""
    argv = base.split()
    out = [argv[:i] + [v] + argv[i + 1:]
           for i, a in enumerate(argv) if re.match(r"-?\d", a) for v in HOSTILE]
    if "--interval" in argv:
        i = argv.index("--interval") + 1
        out += [argv[:i] + list(pair) + argv[i + 2:] for pair in HOSTILE_INTERVALS]
    if argv[0] == "periodic" and argv[1].isdigit():
        out += [["periodic", *pair] for pair in NON_COPRIME]
    return out


@settings(max_examples=150)
@given(st.sampled_from(FUZZ_BASES).flatmap(lambda b: st.sampled_from(_hostile_variants(b))))
def test_hostile_argument_never_exits_1(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "internal error" not in err.getvalue()


def test_point_with_an_int_beside_a_decimal_runs_in_floats(capsys):
    # a point follows the flavor rule of a basis: `1 0.6` is `1.0 0.6`
    code, mixed, _ = run_cli(capsys, ["orbit", "1", "0.6", "-n", "3"])
    _, decimal, _ = run_cli(capsys, ["orbit", "1.0", "0.6", "-n", "3"])
    assert code == 0 and mixed == decimal
    assert [r[2] for r in parse_csv(mixed)[2]] == ["0.6", "0.8", "1"]


def test_slopes_mixed_exact_and_float_basis(capsys):
    # exact 1 and 0 beside a float entry: Gauss reduction runs in floats
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "1", "0", "0.6180339887", "1",
                                    "-t", "1", "-n", "50", "--gaps"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["i", "gap"] and len(rows) == 50


def test_mixed_basis_prints_its_decimal_spelling(capsys):
    # one decimal entry makes the whole basis float, like writing 1.0 for 1
    tail = ["-t", "1", "-n", "4"]
    _, mixed, _ = run_cli(capsys, ["slopes", "--basis", "1", "0", "0.5", "1", *tail])
    _, decimal, _ = run_cli(capsys, ["slopes", "--basis", "1.0", "0", "0.5", "1", *tail])
    assert mixed == decimal
    assert [r[1] for r in parse_csv(mixed)[2]] == ["0.5", "1.5", "2.5", "3.5", "4.5"]


def test_decimal_width_makes_the_whole_run_float(capsys):
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "3", "1", "1", "2/3",
                                    "-t", "2.5", "-n", "3"])
    assert code == 0
    assert [r[1] for r in parse_csv(out)[2]] == [
        "0.166666666667", "0.666666666667", "1.16666666667", "1.66666666667"]


def test_exact_basis_at_a_decimal_width_enumerates_the_exact_strip(capsys):
    # 1.5 is exactly 3/2: both routes find the slopes 1/4 and 3/4, as floats,
    # and a larger --slope-max only appends slopes
    tail = ["--basis", "4/3", "3/2", "1/3", "9/8", "-t", "1.5"]
    _, bcz, _ = run_cli(capsys, ["slopes", *tail, "-n", "1"])
    assert [r[1] for r in parse_csv(bcz)[2]] == ["0.25", "0.75"]
    for slope_max in ("1", "4"):
        _, brute, _ = run_cli(capsys, ["slopes", *tail, "--bruteforce", "--slope-max", slope_max])
        assert [r[1] for r in parse_csv(brute)[2]][:2] == ["0.25", "0.75"]


def test_hit_point_on_a_tile_edge_is_reduced_exactly(capsys):
    # the hit of this exact basis at width 1/4 is (1/20, 1/4), on a tile edge
    # that floats cannot place; the decimal width is exactly 1/4, so the
    # slopes are the floats of the exact 44, 124, 144, 532/3
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "16/5", "11/4", "4/5", "1",
                                    "-t", "0.25", "-n", "3"])
    assert code == 0
    assert [r[1] for r in parse_csv(out)[2]] == ["44", "124", "144", "177.333333333"]
    basis = lattices.UnimodularBasis(F(16, 5), F(4, 5), F(11, 4), 1)
    assert lattices.slope_gaps_via_bcz(basis, 0.25, 3).slopes == [44.0, 124.0, 144.0, 532 / 3]


def test_decimal_basis_runs_the_orbit_its_doubles_spell(capsys):
    # det = 1 - 2^-51 exactly: the true orbit of this lattice crosses a tile
    # boundary the rational 1 5/3 2 13/3 only touches
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "1.0", "1.6666666666666667", "2.0",
                                    "4.333333333333333", "-t", "1.0", "-n", "4"])
    assert code == 0
    assert [r[1] for r in parse_csv(out)[2]] == ["2", "3.5", "8", "12.5", "17"]
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "1", "5/3", "2", "13/3", "-t", "1", "-n", "4"])
    assert [r[1] for r in parse_csv(out)[2]] == ["2", "7/2", "5", "8", "11"]


@pytest.mark.parametrize("mode", [["-n", "3"], ["--bruteforce", "--slope-max", "3"]])
def test_float_basis_prints_no_negative_zero(capsys, mode):
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "1.5", "0.5", "1.0", "1.0",
                                    "-t", "1", *mode])
    assert code == 0
    assert [r[1] for r in parse_csv(out)[2]][:2] == ["0", "2"]


#: one call of every command; none of them loads scipy, which only the
#: tests use, as an oracle
SCIPY_FREE = [
    "orbit 1/5 1 -n 12",
    "orbit 1 2/3 --periodic",
    "farey 60 --stat gaps --bins 10",
    "farey 60 --stat index --alpha 1.5",
    "farey 60 --stat moments --s 0.5 --t 2",
    "farey 60 --stat excursion",
    "slopes --basis 1 0 0 1 -t 25 --gaps -n 20 --c 0.1 --d 1",
    "slopes --basis 1 0 0.5 1 -t 1 --bruteforce --slope-max 3",
    "periodic 2 3",
    "periodic --hierarchy 5",
    "excursions --slope-irrational golden -n 1000",
    "hall-cdf --d-max 1 --step 0.1",
    "measure --s 1 --t 0 --alpha 1.5",
    "hall-cdf --d-max 1 --step 0.1 --oracle both",
]

#: in one fresh process: import bczmap, then bczmap.cli, then run each command
#: of argv[2] in turn; report after each whether the module argv[1] is loaded,
#: and the exit code.  With argv[3] == "blocked", every import of the module
#: fails.
LOAD_PROBE = """
import contextlib, io, json, sys
module = sys.argv[1]
if sys.argv[3:] == ["blocked"]:
    sys.modules[module] = None
import bczmap
loaded = {"import bczmap": sys.modules.get(module) is not None}
from bczmap.cli import main
loaded["import bczmap.cli"] = sys.modules.get(module) is not None
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
    loaded[argv] = (sys.modules.get(module) is not None, code)
print(json.dumps(loaded))
"""


def run_python(*args):
    """The finished run of a fresh interpreter that imports bczmap from this
    checkout; it must exit 0."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def probe_loads(module, commands, *flags):
    return json.loads(run_python("-c", LOAD_PROBE, module, json.dumps(commands), *flags).stdout)


def test_import_probe_sees_every_module_the_benchmark_times():
    # a traced benchmark run takes the median of these modules' lines from
    # this probe, and fails on a module that `import bczmap.cli` never loads
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    timed = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["IMPORTS"])
    err = run_python("-X", "importtime", "-c", "import bczmap.cli").stderr
    names = [parts[2].strip() for parts in (line.split("|") for line in err.splitlines())
             if parts[0].startswith("import time:") and len(parts) == 3]
    for module in timed:
        assert names.count(module) == 1, module


@pytest.mark.parametrize("flags", [(), ("blocked",)], ids=["loaded", "import-blocked"])
def test_no_command_loads_scipy(flags):
    loaded = probe_loads("scipy", SCIPY_FREE, *flags)
    assert loaded.pop("import bczmap") is False
    assert loaded.pop("import bczmap.cli") is False
    for argv in SCIPY_FREE:
        assert loaded[argv] == [False, 0], argv


#: every command that builds no array of F(Q)
NUMPY_FREE = [
    "orbit 1/5 1 -n 12",
    "orbit 1 2/3 --periodic",
    "periodic 2 3",
    "periodic --hierarchy 5",
    "slopes --basis 1 0 0 1 -t 25 --gaps -n 20 --c 0.1 --d 1",
    "slopes --basis 1 0 0.5 1 -t 1 --bruteforce --slope-max 3",
    "excursions --slope-irrational golden -n 1000",
    "hall-cdf --d-max 1 --step 0.1",
    "hall-cdf --d-max 1 --step 0.1 --oracle both",
    "measure --s 1 --t 0 --alpha 1.5",
]
#: refused by the library before it builds F(Q)
NUMPY_REFUSED = ["farey 0", "farey 1 --stat index", "farey 3 --output /nonexistent/x.csv",
                 "farey 3000 --stat index --alpha nan"]


def test_numpy_is_loaded_only_for_farey_arrays():
    loaded = probe_loads("numpy", NUMPY_FREE + NUMPY_REFUSED + ["farey 60 --stat gaps --bins 10"])
    assert loaded.pop("import bczmap") is False
    assert loaded.pop("import bczmap.cli") is False
    for argv in NUMPY_FREE:
        assert loaded[argv] == [False, 0], argv
    for argv in NUMPY_REFUSED:
        assert loaded[argv] == [False, 2], argv
    # the probe does see numpy once F(Q) is built
    assert loaded["farey 60 --stat gaps --bins 10"] == [True, 0]


#: in one fresh process: count F(argv[1]) over each spelling of [0, 1],
#: then report the counts and whether numpy was loaded
WHOLE_INTERVAL_PROBE = """
import sys
from fractions import Fraction as F
from bczmap.farey import interval_count
counts = [interval_count(int(sys.argv[1]), I) for I in ((0, 1), [0, 1], (0.0, 1.0), (F(0), F(1)))]
print(counts, "numpy" in sys.modules)
"""


def test_the_whole_interval_is_counted_without_building_the_level():
    out = run_python("-c", WHOLE_INTERVAL_PROBE, "4000").stdout
    assert out == f"{[farey_cardinality(4000)] * 4} False\n"


def test_import_bczmap_loads_no_submodule():
    code = "import sys, bczmap; print([m for m in sys.modules if m.startswith('bczmap.')])"
    assert run_python("-c", code).stdout == "[]\n"


#: commands that build no lattice and no periodic orbit
LATTICE_AND_PERIODIC_FREE = [
    "orbit 1/5 1 -n 12",
    "excursions --slope-irrational golden -n 1000",
    "hall-cdf --d-max 1 --step 0.1",
    "measure --s 1 --t 0 --alpha 1.5",
    "farey 60 --stat gaps --bins 10",
]


@pytest.mark.parametrize("module, free, user", [
    ("bczmap.lattices", LATTICE_AND_PERIODIC_FREE + ["periodic 2 3"],
     "slopes --basis 1 0 0 1 -t 2 -n 3"),
    ("bczmap.periodic", LATTICE_AND_PERIODIC_FREE, "orbit 1 2/3 --periodic"),
])
def test_commands_load_only_the_modules_they_run(module, free, user):
    loaded = probe_loads(module, free + [user])
    assert loaded.pop("import bczmap") is False
    assert loaded.pop("import bczmap.cli") is False
    for argv in free:
        assert loaded[argv] == [False, 0], argv
    # the probe does see the module once a command runs it
    assert loaded[user] == [True, 0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
       st.floats(1e-3, 10.0), st.floats(0.0, 1000.0))
def test_hall_cdf_grid_is_numpy_arange(start, step, span):
    import numpy as np
    stop = start + span * step + step / 2  # d_max + step/2, as cmd_hall_cdf passes it
    grid = cli._arange(start, stop, step)
    ref = [float(d) for d in np.arange(start, stop, step)]
    # equal floats, and equal signs of zero
    assert [(d, math.copysign(1, d)) for d in grid] == [(d, math.copysign(1, d)) for d in ref]


def test_farey_gaps_histogram(capsys):
    code, out, _ = run_cli(capsys, ["farey", "200", "--stat", "gaps", "--bins", "10"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert len(rows) == 10
    assert header == ["bin_lo", "bin_hi", "count", "proportion"]
    total = sum(float(r[3]) for r in rows)
    assert 0.9 < total <= 1.0 + 1e-12


def test_farey_single_level(capsys):
    code, out, _ = run_cli(capsys, ["farey", "1", "--stat", "gaps", "--bins", "4"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert sum(int(r[2]) for r in rows) == 1


def test_farey_index_mean(capsys):
    code, out, _ = run_cli(capsys, ["farey", "1000", "--stat", "index", "--alpha", "1"])
    assert code == 0
    _, header, rows = parse_csv(out)
    emp = float(rows[0][header.index("empirical_moment")])
    lim = float(rows[0][header.index("limit")])
    assert abs(emp - 3) < 1e-2 and abs(lim - 3) < 1e-9


def test_hall_cdf_output(capsys):
    code, out, _ = run_cli(capsys, [
        "hall-cdf", "--d-min", "0", "--d-max", "3", "--step", "0.05",
        "--oracle", "both",
    ])
    assert code == 0
    meta, header, rows = parse_csv(out)
    params = dict(kv.split("=") for kv in meta["params"].split(" "))
    assert float(params["kink_lo"]) == pytest.approx(3 / math.pi**2)
    assert float(params["kink_hi"]) == pytest.approx(12 / math.pi**2)
    kinks = [r for r in rows if r[header.index("is_kink")] == "1"]
    assert len(kinks) == 2
    icdf, iq = header.index("cdf"), header.index("quadrature")
    vals = [float(r[icdf]) for r in rows]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    for r in rows:
        assert abs(float(r[icdf]) - float(r[iq])) < 1e-8
        if float(r[0]) <= 3 / math.pi**2:
            assert float(r[icdf]) == 0.0


def test_excursions_run(capsys):
    code, out, _ = run_cli(capsys, [
        "excursions", "--slope-irrational", "golden", "-n", "5000",
        "--record-every", "2500",
    ])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["n", "a_N", "l_N", "A_N", "L_N"]
    assert rows[-1][0] == "5000"
    assert abs(float(rows[-1][1]) - 2) < 0.2


def test_slopes_gaps_z2(capsys):
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "1", "0", "0", "1",
                                    "-t", "25", "--gaps", "-n", "5"])
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["params"].count("farey_period_of_integer_width=200")
    assert rows[0][1] == "1/25"


def test_farey_period_is_printed_up_to_its_width_cap(capsys, monkeypatch):
    tail = ["--basis", "1", "0", "0", "1", "--gaps", "-n", "3"]
    _, out, _ = run_cli(capsys, ["slopes", "-t", str(cli.FAREY_PERIOD_WIDTH_MAX), *tail])
    assert f"farey_period_of_integer_width={farey_cardinality(10**6)}" in out
    # past the cap N(t) is not counted at all: at t = 10^10 that took 48 s
    monkeypatch.setattr(cli, "farey_cardinality", None)
    code, out, _ = run_cli(capsys, ["slopes", "-t", "10000000000", *tail])
    assert code == 0 and "farey_period" not in out
    assert parse_csv(out)[2][0] == ["0", "1/10000000000"]


def test_slopes_bruteforce_mode(capsys):
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "1", "0", "0", "1",
                                    "-t", "1", "--bruteforce", "--slope-max", "6"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["0", "1", "2", "3", "4", "5", "6"]


def test_farey_interval_option(capsys):
    code, out, _ = run_cli(capsys, ["farey", "60", "--interval", "1/4", "3/4",
                                    "--stat", "moments", "--s", "-1", "--t", "-1"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert "interval=[1/4;3/4]" in meta["params"]
    emp = float(rows[0][header.index("empirical")])
    assert 2.5 < emp < 4.5  # normalized sum near pi^2/3 on a subinterval


def test_farey_moments_at_a_pole_print_limit_nan(capsys):
    # the limit B_{s,t} needs s > -1, so it prints nan; the empirical sum is finite
    code, out, _ = run_cli(capsys, ["farey", "50", "--stat", "moments", "--s", "-2", "--t", "0"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert rows[0][header.index("limit")] == "nan"
    assert math.isfinite(float(rows[0][header.index("empirical")]))


def test_slopes_help_exit_zero():
    with pytest.raises(SystemExit) as exc:
        main(["slopes", "--help"])
    assert exc.value.code == 0


def test_random_basis_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slopes", "--random-basis"])
    assert exc.value.code == 2


@pytest.mark.parametrize("k, l", [(1, 1), (2, 3), (7, 10), (1, 20), (150, 151), (200, 3001)])
def test_periodic_rows_are_the_segment_periods(capsys, k, l):
    # the r-th subinterval (l/(l + r), l/(l + r - 1)] has the period N(l + r - 1)
    code, out, _ = run_cli(capsys, ["periodic", str(k), str(l)])
    assert code == 0
    rows = parse_csv(out)[2]
    assert rows == [[str(r), f"({l}/{l + r};{l}/{l + r - 1}]", str(farey_cardinality(l + r - 1))]
                    for r in range(1, k + 1)]


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, ["periodic", "2", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "periodic"
    assert doc["columns"] == ["r", "a_range", "period"]
    assert [r[2] for r in doc["rows"]] == ["4", "6"]


def test_determinism_byte_identical(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["slopes", "--random-basis", "--seed", "7", "-t", "1", "-n", "50",
            "--gaps"]
    assert main(argv + ["--output", str(f1)]) == 0
    assert main(argv + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert b"# seed: 7" in f1.read_bytes()


def test_measure_report(capsys):
    code, out, _ = run_cli(capsys, ["measure"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert all(len(r) == len(header) == 4 for r in rows)  # "B(1,0)" is one quoted field
    by_name = {r[0]: r for r in rows}
    assert by_name["B(1,0)"][1:3] == ["0.666666666667"] * 2
    assert float(by_name["roof_integral"][3]) < 1e-8
    assert float(by_name["min_peak_integral"][3]) < 1e-8
    assert float(by_name["max_peak_integral"][3]) < 1e-8


def test_measure_labels_name_their_exponents_to_12_digits(capsys):
    # at 6 digits the B row read B(-1,-1), the pole whose value it does not print
    code, out, _ = run_cli(capsys, ["measure", "--s", "-0.99999999", "--t", "-0.99999999",
                                    "--alpha", "1.00000001"])
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith('"B(-0.99999999,-0.99999999)",') for line in lines)
    assert any(line.startswith("kappa_moment(1.00000001),") for line in lines)


def test_a_failing_quadrature_oracle_exits_1(capsys, monkeypatch):
    # the oracle cannot reach its tolerance: an internal fault, not bad input
    from bczmap import measure
    quad = measure._quad
    monkeypatch.setattr(measure, "_quad", lambda f, a, b, **kw: quad(f, a, b, **dict(kw, limit=2)))
    for argv in (["measure"], ["hall-cdf", "--d-max", "1", "--oracle", "quadrature"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 1 and "internal error: quadrature over" in err, argv
