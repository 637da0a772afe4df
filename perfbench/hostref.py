"""A fixed reference computation, timed between ops.

The speed of a small shared VM drifts: on a 2-vCPU Intel Xeon VM a fixed
CPU loop ran 1.0x to 1.75x its best time in 10 s windows, for minutes at a
stretch, and the op times drifted with it.  Dividing each op's wall time by
the reference time taken just before it cancels most of that drift.  The
reference mixes Python bytecode and a numpy sort, like the ops.
"""

import time

import numpy as np

_ARRAY = np.random.default_rng(0).standard_normal(200_000)


def _once() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    np.sort(_ARRAY)
    return time.perf_counter() - start


def reference_s() -> float:
    """Best of three runs of the ~10 ms reference computation, in seconds;
    the best of a few drops the short bursts that also hit single runs."""
    return min(_once() for _ in range(3))
