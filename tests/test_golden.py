"""Byte-for-byte stdout of the command line against recorded files.

Each command's stdout is stored in `tests/golden/<name>.out`.  The set is
the README's example commands, `test_cli.SCIPY_FREE`, a few windowed and
JSON calls, and two periods at large Q.  The quadrature oracles of
`measure` and `hall-cdf --oracle quadrature|both` are pure Python, so
their digits are recorded too.

After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from bczmap.cli import main
from test_cli import SCIPY_FREE

GOLDEN = Path(__file__).resolve().parent / "golden"

README = [
    "orbit 1/5 1 -n 12",
    "orbit 1 2/3 --periodic",
    "farey 2000 --stat gaps --bins 100",
    "farey 1000 --stat index --alpha 1",
    "farey 1000 --stat excursion",
    "excursions --slope-irrational golden -n 1000000",
    "slopes --basis 1 0 0 1 -t 25 --gaps -n 600",
    "slopes --random-basis --seed 7 -t 1 -n 100",
    "periodic 2 3",
    "periodic --hierarchy 20",
    "hall-cdf --d-max 3 --step 0.01 --oracle both",
    "measure --s 1 --t 0 --alpha 1.5",
]
WINDOWED = [
    "farey 200 --stat index --interval 0 1/3",
    "farey 200 --stat index --interval 1/2 1",
    "farey 200 --stat gaps --bins 20 --interval 1/2 1",
    "farey 200 --stat moments --s 1 --t 0.5 --interval 1/3 2/3 --format json",
]
#: periods N(Q) at large Q, recorded from the totient sieve the count replaced
PERIODS = [
    "periodic 1 1000000",
    "periodic 3 1000",
]
#: a first hit at slope 9e24, far above any strip the enumerator could sweep
DEEP_HITS = [
    "slopes --basis 1.0 0.3 0.5 1.15 -t 1e-9 -n 3",
]
#: whole-level averages at Q = 3000, read in many blocks of the window
MANY_BLOCKS = [
    "farey 3000 --stat moments --s 0.7 --t 1.3",
    "farey 3000 --stat excursion",
]
COMMANDS = list(dict.fromkeys(README + SCIPY_FREE + WINDOWED + PERIODS + DEEP_HITS + MANY_BLOCKS))


def golden_path(command: str) -> Path:
    return GOLDEN / (re.sub(r"[^A-Za-z0-9.]+", "_", command).strip("_") + ".out")


def stdout_of(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    assert code == 0, command
    return out.getvalue()


def test_golden_names_are_distinct():
    assert len({golden_path(c) for c in COMMANDS}) == len(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(command):
    assert stdout_of(command).encode() == golden_path(command).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in COMMANDS:
        golden_path(command).write_bytes(stdout_of(command).encode())
    sys.exit(0)
