"""Host speed, measured by a fixed pure-Python loop.

On the shared 2-core host where this benchmark was built, the same
CPU-bound loop runs up to 1.6x slower at some moments than at others; a
state lasts from a second to minutes and holds on both cores alike.  Raw
wall times of 18-second runs spread by 15-25% between runs, so every timed
operation is bracketed by this loop and its wall time is rescaled to the
loop's reference duration:

    t_ref = t_wall * REFERENCE_S / loop_s

``loop_s`` is the loop's mean duration while a forked command runs on the
other core, or its duration right before and after an operation that runs
in the timing process itself.  The loop never touches ``nearfield``, so the program under test cannot
change its speed.
"""

from __future__ import annotations

import statistics
import time

# Duration of one ``_loop()`` on the reference machine (2-vCPU Intel Xeon,
# CPython 3.11) when it runs at its usual speed.
REFERENCE_S = 1.7e-3


def _loop() -> int:
    acc = 0
    for i in range(20000):
        acc += i * i
    return acc


def loop_seconds(repeats: int = 9) -> float:
    """Median duration of the loop over ``repeats`` runs (about 15 ms)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def loops_until(done) -> list[float]:
    """Run the loop until ``done()`` is true; return every loop's duration."""
    times = []
    while True:
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
        if done():
            return times


def to_reference(wall_s: float, loop_s: float) -> float:
    """Wall time rescaled to the reference host speed."""
    return wall_s * REFERENCE_S / loop_s
