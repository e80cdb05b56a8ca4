"""Host speed, measured by a fixed piece of work timed between operations.

The CPU throughput of a shared virtual machine drifts by a quarter or more
over seconds to minutes, and process CPU time drifts with wall time, so two
runs of the same code differ by more than a change worth measuring.
`run.py` therefore times `calibrate()` through the run and reports its time
metrics in reference seconds: a wall time divided by `slowdown`, the run's
median calibration time over that of the reference host.  On the reference
host reference seconds are wall seconds.  The raw wall times stay in the
run's result file.

The calibration mixes numpy reductions and repeats on dyadic arrays of 2^12
to 2^14 values, as the `signal` kernels do, with interpreted Python loops.
Its arrays are small, so it adds nothing to the run's peak resident set,
and it reads no dyadlab code, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median calibration time on the reference host, the 2-vCPU machine of
# README.md's reference figures
REFERENCE_S = 0.02

_SMALL = np.random.default_rng(0).standard_normal(1 << 14)


def _work() -> float:
    acc = 0.0
    for _ in range(24):
        v = _SMALL
        while v.size > 1 << 12:
            v = v.reshape(-1, 2).mean(axis=1)
            acc += float(np.repeat(v, 2).sum())
        acc += float(np.cumsum(_SMALL)[-1])
    table = {}
    for i in range(50000):
        table[i & 255] = table.get(i & 255, 0) + i * i % 7
    return acc + sum(table.values())


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def slowdown(calibrations) -> float:
    """How much slower than the reference host this host ran."""
    return statistics.median(calibrations) / REFERENCE_S
