"""Machine-speed probe: fixed reference computations, sampled through a run.

On the 2-vCPU VM this benchmark was tuned on, the same pure-Python work
runs anywhere between 1.0x and 1.5x of its fastest time, in states that
last from seconds to minutes, so two runs a few minutes apart can differ
by 20 % with nothing changed.  Every timing the benchmark reports is
therefore scaled to a reference speed:

    reported = measured / speed index

A sample's speed index is the geometric mean over the kernels k of
(CPU time of k) / REFERENCE_S[k]; an interval's is the median over the
samples from WINDOW_S before it to WINDOW_S after it, or over the
MIN_SAMPLES samples nearest to its middle if that window holds fewer.  So
each operation is scaled by the state the machine was in while it ran, and
one 30-second pass by the median state over those 30 seconds.

The kernels are code of the benchmark's own, so no change to the package
moves them: ``checker.rank_table`` on a fixed 9-column matrix (bit and
dict work like the program's GF(2) kernel) and an integer loop
(interpreter dispatch).  They run from a ``SIGALRM`` handler every
``PERIOD_S`` seconds, between bytecodes of whatever the main thread is
doing, so the samples are spread evenly over set-up and over the timed
operations themselves, long ones included.  A sample is the kernel's CPU
time on the main thread, which leaves out time the thread waits for a
core while pool workers hold both; the wall time spent in the handler is
subtracted from the timing it fell into.  Interval timers are not
inherited across ``fork``, so pool workers never probe.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import checker

PERIOD_S = 0.2
WINDOW_S = 0.5
MIN_SAMPLES = 5
_RANK_COLS = tuple(range(1, 10))


def _rank() -> None:
    for _ in range(5):
        checker.rank_table(_RANK_COLS)


def _loop() -> None:
    s = 0
    for i in range(20000):
        s += i * i


KERNELS = {"rank": _rank, "loop": _loop}
# Median CPU seconds of each kernel on the reference machine (2-vCPU x86-64
# VM, CPython 3.11) in its fast state.
REFERENCE_S = {"rank": 0.0010, "loop": 0.0013}


class SpeedProbe:
    """Samples the kernels through a run; see the module doc."""

    def __init__(self):
        self.times: list[float] = []    # perf_counter() at each sample
        self.index: list[float] = []    # speed index of each sample
        self.spent_s = 0.0              # wall seconds inside the probe

    def sample(self) -> None:
        wall = time.perf_counter()
        logs = []
        for name, kernel in KERNELS.items():
            cpu = time.thread_time()
            kernel()
            logs.append(math.log((time.thread_time() - cpu) / REFERENCE_S[name]))
        self.times.append(wall)
        self.index.append(math.exp(statistics.fmean(logs)))
        self.spent_s += time.perf_counter() - wall

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, stop: float) -> float:
        """Speed index of the interval [start, stop] of perf_counter()."""
        while len(self.times) < MIN_SAMPLES:
            self.sample()
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, stop + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect_left(self.times, (start + stop) / 2)
            lo = min(max(mid - MIN_SAMPLES // 2, 0), len(self.times) - MIN_SAMPLES)
            hi = lo + MIN_SAMPLES
        return statistics.median(self.index[lo:hi])

    def record(self, phases: dict[str, tuple[float, float]]) -> dict:
        return {"period_s": PERIOD_S, "samples": len(self.times),
                "spent_s": self.spent_s, "reference_s": REFERENCE_S,
                "speed_index": {ph: self.speed(*span) for ph, span in phases.items()}}
