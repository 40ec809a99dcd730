"""Sampling probe of how fast the current core runs Python, for steadier timings.

On a shared host the same pure-Python loop can take 13 ms in one phase and
21 ms in the next; the phases last from seconds to minutes and the two cores
of a 2-vCPU guest do not change in step.  A wall time of one run therefore
measures the host as much as the program.

A :class:`SpeedProbe` runs inside the timed process.  Every ``interval_s`` of
wall time a ``SIGALRM`` handler times a fixed short loop, on the same core
and at the same moment as the program it interrupts.  The harmonic mean of
those samples says how slowly the core ran over the timed interval, and
:func:`normalise` rescales the wall time to a core that runs the loop in
``REF_PROBE_S``.  The harmonic mean is the time average of the core's speed,
and a sample that the host stalled for milliseconds barely moves it, where
one such sample can double the plain mean of a thousand.  A probe every
10 ms costs about 0.2 % of the run.
"""

from __future__ import annotations

import signal
import time

PROBE_LOOPS = 300
# A typical probe time on an Intel Xeon 2-vCPU cloud guest with Python 3.11
# (17-24 us over its phases), so normalised times there read close to wall
# times.
REF_PROBE_S = 2.0e-5


def probe_loop() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return s


class SpeedProbe:
    """Times ``probe_loop`` once at start and then on every timer tick."""

    def __init__(self, interval_s: float, clock=time.perf_counter):
        self.interval_s = interval_s
        self.clock = clock
        self.rate_sum = 0.0  # sum of 1 / sample time
        self.samples = 0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = self.clock()
        probe_loop()
        self.rate_sum += 1.0 / (self.clock() - start)
        self.samples += 1

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> float:
        """Disarm the timer, restore the old handler; return the harmonic mean sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.samples / self.rate_sum


def normalise(wall_s: float, mean_probe_s: float) -> float:
    """``wall_s`` rescaled to a core that runs the probe in ``REF_PROBE_S``."""
    return wall_s * REF_PROBE_S / mean_probe_s
