"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload with --scale tiny, untraced on two seeds and traced on
one, and asserts that each run prints every metric BENCHMARK.json names,
with its unit, that every result checks out (cli-mix may count exit-code
failures), and that another seed changes the inputs but not the
set of metrics.  Takes about two minutes, most of it cli-mix processes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload, seed, trace):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                                 "--trace", str(trace), "--scale", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} seed {seed}: {proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    digest = lines[0].split("sha256:")[1].split()[0]
    return digest, json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in (x["name"] for x in bench["workloads"]):
        seen = {}
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            digest, result = run(w, seed, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["attempted"] >= 1, (w, seed, trace, result)
            # only cli-mix may fail: its malformed calls that break the exit-2 contract
            assert w == "cli-mix" or result["failed"] == 0, (w, seed, trace, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (w, trace, got)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            seen[(seed, trace)] = digest
        assert seen[(1, 0)] == seen[(1, 1)] != seen[(2, 0)], (w, seen)
        print(f"ok {w}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
