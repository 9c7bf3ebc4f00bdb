"""Machine-speed probe, so that timings compare across runs on a shared machine.

On a shared 2-core virtual machine the same op can take anywhere from 1.25 s
to 2.3 s within one minute, and CPU time swings with wall time, so neither
compares across runs.  The probe times a fixed reference kernel (small numpy
operations driven from Python, like the program's hot loops) once just before
an op, every INTERVAL seconds during it (from a SIGALRM handler in the main
thread), and once just after it.  The op's corrected time is its wall time,
less the time spent in the probe during the op, scaled by NOMINAL_S over the
mean kernel time: the seconds the op would take at the machine speed where the
kernel takes NOMINAL_S.  Raw wall times are printed beside corrected ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.1
ROUNDS = 200
# Median kernel time on the 2-core machine the baseline was measured on.
NOMINAL_S = 1.5e-3

_M = np.cos(np.arange(64.0)).reshape(8, 8)


def kernel():
    """Seconds taken by a fixed run of small-array numpy operations."""
    x = _M
    start = perf_counter()
    for _ in range(ROUNDS):
        x = np.abs(x[:, ::-1] * 0.5 + _M)
        x.sum()
    return perf_counter() - start


class SpeedProbe:
    """Context manager sampling the kernel around and during one timed op."""

    def __init__(self):
        self.samples = []
        self.inside = 0.0  # seconds spent in the probe during the op
        self.on_tick = None  # called with each in-op probe's duration
        self._previous = None

    def __enter__(self):
        self.samples = [kernel()]
        self.inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())
        return False

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(kernel())
        spent = perf_counter() - start
        self.inside += spent
        if self.on_tick is not None:
            self.on_tick(spent)

    def scale(self):
        """Factor taking seconds at the probed speed to seconds at NOMINAL_S."""
        return NOMINAL_S / statistics.fmean(self.samples)

    def corrected(self, wall):
        """The op's wall time, without the probe's share, at nominal speed."""
        return (wall - self.inside) * self.scale()
