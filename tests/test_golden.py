"""Byte-for-byte stdout of the command line against recorded files.

Each command's stdout is stored in `tests/golden/<name>.out`.  The set is
the README's example commands, `test_cli.SCIPY_FREE` and a few windowed
and JSON calls.  Commands that run a scipy quadrature (`measure`,
`hall-cdf --oracle quadrature|both`) are left out: their last digits
depend on the scipy version.

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
]
WINDOWED = [
    "farey 200 --stat index --interval 0 1/3",
    "farey 200 --stat index --interval 1/2 1",
    "farey 200 --stat gaps --bins 20 --interval 1/2 1",
    "farey 200 --stat moments --s 1 --t 0.5 --interval 1/3 2/3 --format json",
]
COMMANDS = list(dict.fromkeys(README + SCIPY_FREE + WINDOWED))


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
