"""Host-speed calibration for the end-to-end timings.

On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11, numpy 2.4)
the same code ran at speeds that differ by up to 1.8x, in phases that last
from under a second to minutes, so a 25-second run mostly sees one phase
and raw run means spread by 12-33% between runs.
A fixed loop of the benchmark's own Python and small-array numpy work, the
kind of work the program does, slows down with the host.  Over 230
``weights-cz`` passes its time correlated with the pass time at 0.87.  The
benchmark times the loop before every op and after the last one, and
scales each op by the mean of the two loops around it.  On 25-second
windows of ``harness`` this cut the spread of throughput from 23% to 7%;
scaling whole passes only reached 18%, because the speed changes within a
pass.

The loop never calls ``morreybench``, so a change to the program cannot
change the scale; it only removes the host's speed from the comparison.
"""

from __future__ import annotations

import time

import numpy as np

# loop time on that machine at its usual (slower) speed; scaled timings
# read as if the loop took exactly this long
REFERENCE_S = 0.0125

_RNG = np.random.Generator(np.random.PCG64(1805))
_VEC = _RNG.random(256)
_MAT = _RNG.random((32, 32))


def loop_seconds() -> float:
    """Wall time of the fixed calibration loop."""
    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(20000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += float(_VEC[i & 255]) * 1.0000001
        if i % 50 == 0:
            acc += float((_MAT @ _MAT[:, i % 32]).sum()) + float(np.sum(_VEC[: (i % 200) + 1]))
    return time.perf_counter() - start


def scales(loops) -> list[float]:
    """Scale for each interval between consecutive loop times.

    A time measured between loops ``a`` and ``b`` is multiplied by
    ``REFERENCE_S`` over their mean, so it reads as at the reference speed.
    """
    return [2.0 * REFERENCE_S / (a + b) for a, b in zip(loops, loops[1:])]
