"""Host-speed reference for the end-to-end timings.

A shared host changes speed by up to 1.7x within seconds, with the same
code and the same inputs.  Raw wall times from two sets of runs minutes
apart then disagree by more than any useful regression bound.  So the
benchmark times a fixed reference loop, which does not call aoiclock, in
the process that does the work, and expresses the work's time at a fixed
reference speed:

    time = measured time * REF_S / (reference loop time around the work)

A change to aoiclock moves these times exactly as it moves raw wall time;
a change in the host's speed moves the work and the reference loop alike
and cancels.  The loop mixes per-row string formatting with small numpy
passes, the two kinds of work the workloads spend their time on.  Timed
next to each other over 200 s in which the host slowed by 60%, a
trace-export call and a Monte Carlo run scaled this way spread 0.064 and
0.061 across 20 s windows; raw, 0.41 and 0.28.  ``REF_S`` is fixed at
25 ms, about the loop's time on the baseline host (2 shared vCPUs, Python
3.11.7, numpy 2.4.6) when it ran fast, so values read as seconds on a host
where the loop takes 25 ms.  Raw times are printed as well.
"""

from __future__ import annotations

import bisect
import io
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.025
GAP_S = 0.5


def reference_loop() -> None:
    buf = io.StringIO()
    for k in range(25_000):
        buf.write(f"{k},{k * 7},{k % 13},{k % 3}\n")
    a = np.arange(100_000, dtype=np.int64)
    for _ in range(8):
        (a * 3 % 7).cumsum()


def reference_s(n: int = 3) -> float:
    """Median time of ``n`` reference loops, run back to back."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Reference-loop samples over a run, and operation times scaled by them."""

    def __init__(self):
        self.at: list[float] = []
        self.ref_s: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.ref_s.append(t1 - t0)

    def tick(self) -> None:
        """Sample unless the last sample is less than GAP_S old."""
        if not self.at or perf_counter() - self.at[-1] >= GAP_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the median reference time from the last sample before
        ``t0`` to the first sample after ``t1``."""
        lo = max(0, bisect.bisect_right(self.at, t0) - 1)
        hi = bisect.bisect_left(self.at, t1) + 1
        return REF_S / statistics.median(self.ref_s[lo:hi])
