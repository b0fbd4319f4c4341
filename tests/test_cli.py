import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bczmap.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
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


@pytest.mark.parametrize("argv", [
    ["farey", "1", "--stat", "index"],  # indices need Q >= 2
    ["farey", "3", "--output", "{tmp}/missing/x.csv"],  # unwritable output path
])
def test_farey_bad_input_exit_2(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "slopes --basis 1 0 0 1 -t 1/3",  # vertically short lattice
    "slopes --basis 1 0 0 1 -t 9e400",  # infinite width
    "slopes --basis 1 0 0 1 -t 2 -n -5",
    "slopes --basis 1 0 0 1 -t 2 --gaps -n 5 --c 1 --d 0",
    "excursions --start 0.3 0.4 -n 5",  # start outside the section
    "orbit 1/2 7/10 -n -3",
    "farey 3 --stat gaps --interval 2/7 3/10",  # no fraction of F(3) selected
    "farey 3 --stat excursion --interval 2/7 3/10",
    "farey 3 --stat index --interval 2/7 3/10",
    "farey 5 --range 5 1",
    "farey 5 --bins 0",
    "measure --s -2",
    "periodic --hierarchy 1",
])
def test_bad_input_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "internal error" not in capsys.readouterr().err


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


def test_slopes_mixed_exact_and_float_basis(capsys):
    # exact 1 and 0 beside a float entry: Gauss reduction runs in floats
    code, out, _ = run_cli(capsys, ["slopes", "--basis", "1", "0", "0.6180339887", "1",
                                    "-t", "1", "-n", "50", "--gaps"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["i", "gap"] and len(rows) == 50


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


def test_slopes_help_exit_zero():
    with pytest.raises(SystemExit) as exc:
        main(["slopes", "--help"])
    assert exc.value.code == 0


def test_random_basis_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slopes", "--random-basis"])
    assert exc.value.code == 2


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
    by_name = {r[0]: r for r in rows}
    assert float(by_name["roof_integral"][3]) < 1e-8
    assert float(by_name["min_peak_integral"][3]) < 1e-8
    assert float(by_name["max_peak_integral"][3]) < 1e-8
