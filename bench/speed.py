"""Host speed probe: a fixed reference kernel timed between items, so that
timings taken on a shared host can be scaled to a host of fixed speed.

The machine the benchmark runs on shares its cores with other tenants.  When
they are busy the benchmark is not descheduled (CPU time equals wall time)
but every instruction takes longer, by 20-80% for seconds to minutes at a
time.  Such a slowdown hits the reference kernel much as it hits the
program, so an item's time over the kernel's time around it stays nearly
put while both move.  Each timing is scaled by
REFERENCE_S / (the kernel's median time near it): it reads as the time on a
host that runs the kernel in REFERENCE_S.  The kernel is independent of
ksunfold, so a change to the program moves the scaled figures as it moves
the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# the kernel's time on this benchmark's 2-vCPU host ("Intel(R) Xeon(R)
# Processor") when the host is calm; scaled figures read in its units
REFERENCE_S = 1.2e-3
INTERVAL_S = 0.05  # at most one kernel run per this much work
MAX_BURST = 8      # kernel runs at one item boundary, at most
WINDOW_S = 0.25    # kernel runs this close to an item set its scale

_TABLEAU = np.tril(np.arange(1.0, 50.0).reshape(7, 7), -1) / 400.0
_CLOUD = np.linspace(-1.0, 1.0, 200 * 9).reshape(200, 9)


def kernel() -> float:
    """The reference work, about 1.2 ms: a small-array Runge-Kutta-like loop
    (Python control flow over 9-vectors, as in the integrator) and a few
    vectorized operations over 200 states (as in the bracket suites)."""
    y = np.ones(9)
    k = np.zeros((7, 9))
    for _ in range(48):
        for s in range(7):
            k[s] = np.sin(y + _TABLEAU[s] @ k)
        y = y + 1e-3 * k[0]
        if not float(np.sqrt(np.mean(k[6] ** 2))) < 1e9:
            break
    c = _CLOUD * y
    for _ in range(8):
        c = np.cos(c) @ np.eye(9) + np.einsum("ij,ij->i", c, c)[:, None] * 1e-3
    return float(c.sum())


class SpeedProbe:
    """Kernel timings, taken between items; `scale` of an interval is
    REFERENCE_S over the median kernel time within WINDOW_S of it."""

    def __init__(self):
        self.mids: list[float] = []   # perf_counter midpoints, increasing
        self.times: list[float] = []  # kernel durations, seconds
        self.last = time.perf_counter()

    def sample(self, n: int) -> None:
        """Run the kernel n times."""
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.mids.append(0.5 * (t0 + t1))
            self.times.append(t1 - t0)
        self.last = time.perf_counter()

    def between(self) -> None:
        """At an item boundary: one kernel run per INTERVAL_S of work since
        the last, at most MAX_BURST."""
        n = int((time.perf_counter() - self.last) / INTERVAL_S)
        if n:
            self.sample(min(n, MAX_BURST))

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time within WINDOW_S of [start, end], or of the
        nearest run when none is that close."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if lo == hi:
            i = min(lo, len(self.mids) - 1)
            if i > 0 and start - self.mids[i - 1] < self.mids[i] - end:
                i -= 1
            lo, hi = i, i + 1
        return statistics.median(self.times[lo:hi])

    def scale(self, start: float, end: float) -> float:
        return REFERENCE_S / self.kernel_s(start, end)
