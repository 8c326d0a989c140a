"""Host-speed probe for reference-speed timings.

The benchmark runs on shared hosts whose CPU speed drifts by tens of percent
within minutes: identical passes of the sampled workload took 6.4 s to
10.4 s. A timer signal therefore runs a fixed piece of exact rational
arithmetic every INTERVAL_S seconds during a pass and records how long it
took. A stretch of the pass during which the probe took p seconds ran at
REFERENCE_PROBE_S / p of the reference speed, so scaling each measured
interval by the mean of that ratio over the probes inside it gives the
interval's length at the reference speed: the work done, in seconds of a
host running at a steady reference speed. The probe costs about 1 % of a
pass, in every pass alike.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
# the probe's median duration inside passes on the 2-core reference VM, so
# that reference-speed seconds read close to wall seconds there
REFERENCE_PROBE_S = 0.0003
# a short operation takes its speed from the probes of a window this wide,
# since the few probes inside it alone would make a noisy estimate
MIN_WINDOW_S = 0.5


def probe_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(i % 5 + 1, i % 13 + 2)
    return acc


class SpeedProbe:
    """Samples (start time, probe duration) from a SIGALRM interval timer."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        probe_work()
        self.times.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; one last probe guarantees at least one sample."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(signal.SIGALRM, None)

    def factor(self, t0: float, t1: float) -> float:
        """Reference-speed seconds per wall second over [t0, t1], widened to
        at least MIN_WINDOW_S around its middle: the mean speed ratio of the
        probes inside, else of the probe nearest to it."""
        if t1 - t0 < MIN_WINDOW_S:
            mid = (t0 + t1) / 2
            t0, t1 = mid - MIN_WINDOW_S / 2, mid + MIN_WINDOW_S / 2
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            inside = self.durations[lo:hi]
            return sum(REFERENCE_PROBE_S / p for p in inside) / len(inside)
        near = [k for k in (lo - 1, lo) if 0 <= k < len(self.times)]
        k = min(near, key=lambda k: abs(self.times[k] - (t0 + t1) / 2))
        return REFERENCE_PROBE_S / self.durations[k]
