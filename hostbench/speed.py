"""A probe of this process's CPU speed, sampled while the program runs.

On a shared host the speed a process gets swings by up to 1.5x in phases
that last seconds, which is longer than a short operation and about as long
as a long one, so no run length averages it out. Every 10 ms of wall time
SIGALRM interrupts the program between two bytecodes, and the handler times
a fixed pure-Python unit of work (about 30 us, so the probe costs about
0.3 % of the program's time). An operation's slowdown is the mean unit
time during it over REFERENCE_UNIT_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
# The unit's time on an unloaded core of the host this benchmark was written
# on (Intel Xeon, 2 vCPUs, CPython 3.11): the tenth percentile of its unit
# times was 28.2-28.9 us in quiet periods. A fixed reference, rather than
# one taken from each run, keeps runs made under different load comparable.
REFERENCE_UNIT_S = 28e-6


def _unit() -> int:
    total = 0
    for i in range(1000):
        total += i
    return total


class SpeedProbe:
    """Samples the unit time on SIGALRM between enter and exit."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _unit()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(50):  # let the interpreter specialise the unit first
            _unit()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean unit time of the samples in [t0, t1) over the reference; 1 if none."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        if j == i:
            return 1.0
        return statistics.fmean(self.durations[i:j]) / REFERENCE_UNIT_S
