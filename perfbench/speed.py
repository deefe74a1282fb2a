"""Reference process that measures how fast the machine runs at the moment.

On a shared host the speed this benchmark gets drifts by up to about 1.5x,
in states that last tens of seconds, so one run cannot average it away.
The runner therefore times this file, run as its own process, before
every job, and scales the job's time by REFERENCE_S / (that reference
time); set-up time is scaled by the run's median reference time.  The
figures read as they would on a machine where the reference process takes
REFERENCE_S.  The reference uses no normmesh code, so no change to the
program moves it.

The reference is a whole process, like the jobs: interpreter start, the
numpy import, then a short kernel that mixes bytecode compilation (a
large interpreter code path) with small dense numpy work, then exit.  On
the 2-CPU machine described in README.md, scaling each job by it cut the
spread of the `probe` pass time over 26 s windows of a 9-minute recording
from 21% to 4%.  A kernel timed inside the runner's own long-lived process
cut it only to 12%: start-up and cache-cold code are where the jobs lose
most.

Run from the root of a checkout:  python3 perfbench/speed.py
"""

from __future__ import annotations

import statistics
import time

# Median reference time on a 2-CPU Intel Xeon with Python 3.11 and numpy
# 2.4 (OpenBLAS 0.3.31, one thread): a fixed unit, not a figure to update.
REFERENCE_S = 0.25

_SOURCE = "".join(
    f"def f{i}(a, b):\n"
    f"    xs = [a * k + b for k in range({i % 7 + 2})]\n"
    f"    return {{'sum': sum(xs), 'max': max(xs)}} if a > {i} else (a, b, {i})\n"
    for i in range(200))


def kernel() -> None:
    import numpy as np

    compile(_SOURCE, "<speed>", "exec")
    matrix = np.random.default_rng(0).random((400, 400))
    np.linalg.svd(matrix[:200, :200])
    float((matrix @ matrix).sum())


def scale(samples: list[float]) -> float:
    """Factor that converts a run's times to the reference speed."""
    return REFERENCE_S / statistics.median(samples)


if __name__ == "__main__":
    kernel()
