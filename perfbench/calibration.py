"""Host-speed calibration shared by run.py and the worker.

The benchmark host's speed drifts by tens of percent within seconds, and
the drift moves whole runs.  A fixed slice of pure-Python work runs before
and after every timed piece of work; scaling the piece's time by CAL_REF_S
over the mean of the two slices around it gives seconds at the reference
speed, which no longer depend on when the run happened.  Set-up time is
scaled the same way by slices run in the importing process itself, just
before and after `import bczmap`.
"""

from __future__ import annotations

import time

#: time of calibration_slice() at the reference speed (a 2-core host with
#: Python 3.11.7); normalised times are in seconds at that speed
CAL_REF_S = 1.0e-3


def calibration_slice() -> float:
    """Time of a fixed slice of pure-Python work."""
    t0 = time.perf_counter()
    s, f = 0, 0.5
    for i in range(3000):
        s += (i * i) % 7
        f = (f * 3.7) % 1.0
    sorted([(i * 7919) % 10007 for i in range(3000)])
    return time.perf_counter() - t0


def normalise(times, slices) -> list:
    """times[i] at the reference speed; slices[i] and slices[i + 1] ran just
    before and just after it."""
    return [t * 2 * CAL_REF_S / (a + b) for t, a, b in zip(times, slices, slices[1:])]
