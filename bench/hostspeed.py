"""A clock that runs at the host's current speed.

On a shared machine the same pure-Python work takes up to twice as long in
one minute as in the next, and the slowdown is in the CPU itself (process CPU
time grows with it; steal time does not).  Wall-clock figures then measure
the neighbours more than the code.  This module times a fixed reference loop
at short intervals, interleaved with the work, and converts wall time into
*nominal seconds*: the time the work would have taken at the speed where the
reference loop takes ``NOMINAL_REF_S``.  A stretch of wall time ``dt`` during
which the reference loop took ``r`` counts as ``dt * NOMINAL_REF_S / r``.

The reference loop does integer arithmetic and dict updates only: it
allocates nothing the garbage collector tracks, and it runs with the
collector off, so the size of the program's heap cannot change its time.
Its own time is left out of the clock.

    clock = HostSpeedClock()
    clock.start()        # samples every INTERVAL_S from a SIGALRM handler
    t0 = clock.now()
    ...                  # the work
    nominal = clock.now() - t0
    clock.stop()
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REF_LOOPS = 8000
# Time of reference_work() on an unloaded core: 2-core x86-64 VM, Python 3.11.
NOMINAL_REF_S = 1.30e-3
INTERVAL_S = 0.05
# The speed of a stretch is judged by the median of this many latest samples,
# so one sample hit by an interrupt does not skew it.
SMOOTH = 3


def reference_work(loops: int = REF_LOOPS) -> int:
    d = {}
    s = 0
    for i in range(loops):
        k = i % 977
        d[k] = d.get(k, 0) + i
        s += (i * 7) % 13
    return s


def reference_time(samples: int = 5) -> float:
    """Median seconds of ``samples`` reference loops, run now."""
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


class HostSpeedClock:
    """Nominal seconds, sampled from SIGALRM.  Main thread only."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = 0
        self.reference_s = 0.0  # wall time spent in the reference loop
        self._recent = []
        # (wall time of the last sample's end, nominal time then, seconds
        # per nominal second since): replaced as a whole, so now() reads a
        # consistent state even when a sample lands in the middle of it.
        self._state = None

    def start(self) -> None:
        r = reference_time()
        self._recent = [r]
        self._state = (time.perf_counter(), 0.0, r / NOMINAL_REF_S)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        wall, nominal, slowdown = self._state
        return nominal + (time.perf_counter() - wall) / slowdown

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        r = reference_time(1)
        self._recent = (self._recent + [r])[-SMOOTH:]
        wall, nominal, slowdown = self._state
        new_slowdown = statistics.median(self._recent) / NOMINAL_REF_S
        # The stretch since the last sample ran at the mean of the slowdowns
        # measured at its two ends.
        nominal += (entered - wall) * 2 / (slowdown + new_slowdown)
        left = time.perf_counter()
        self._state = (left, nominal, new_slowdown)
        self.samples += 1
        self.reference_s += left - entered
