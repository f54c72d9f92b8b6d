"""A fixed pure-Python yardstick for how fast the machine runs right now.

On the shared 2-vCPU machine the benchmark was built on, everything ran up
to 1.7x slower for seconds to minutes at a time, from one process to the
next and within one process.  This loop slowed by the same factor: across
ten fresh processes whose loop times ranged 0.52-0.91 ms, the ratio of
``dsp.apply_iir`` time to loop time stayed within 4.36-4.68; over 200 s in
one process, scaling by the loop cut the spread of 10 s window medians of a
bi-GRU step from 0.19 to 0.03 (coefficient of variation).

Speeds are therefore reported as if this loop took ``NOMINAL_S``: a time is
multiplied by ``speed_factor()``, a rate divided by it.  The loop uses no
deepself and no NumPy, so no change to deepself can move it, and importing
this module imports nothing else.
"""

import time

NOMINAL_S = 0.002  # the loop's time on a calm vCPU of the machine above
_VALUES = [float(i) for i in range(2000)]


def kernel() -> float:
    total = 0.0
    for _ in range(40):
        for x in _VALUES:
            total += x * 1.000001
    return total


def speed_factor(repeats: int = 3) -> float:
    """NOMINAL_S over the median time of ``repeats`` runs of the loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    times.sort()
    return NOMINAL_S / times[len(times) // 2]
