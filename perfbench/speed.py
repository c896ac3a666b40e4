"""Machine-speed probe: a fixed kernel timed in small slices during the run.

The benchmark's host is shared, and the speed it gives one vCPU drifts by
10-20% over tens of seconds.  The same deterministic pass took between
2.9 and 4.8 CPU seconds within two minutes.  The drift is common to all
code on that vCPU: two different kernels interleaved every few
milliseconds slow down together (correlation 0.97-0.98 over 1-30 s
windows).  A kernel timed between passes, or on the other vCPU, does
not track it.

So the probe runs a small fixed kernel inside the benchmark process,
every ``INTERVAL_S`` of process CPU time (``ITIMER_PROF``), and records
how long each run of it took.  A timed region then reports its CPU time,
less the probe's own, divided by the mean kernel time in that region
and multiplied by ``REFERENCE_KERNEL_S``.  The result is the region's
cost in seconds on a machine where the kernel takes
``REFERENCE_KERNEL_S``.  The program's deterministic passes then vary by
1-4% between passes instead of 4-12%.  The probe takes about 4% of the
CPU time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
KERNEL_ITERS = 40
# a command with fewer samples than this is scaled by its pass's speed
MIN_COMMAND_SAMPLES = 20
# kernel time on the 2-vCPU VM where the benchmark was defined
REFERENCE_KERNEL_S = 4.0e-4

_RNG = np.random.default_rng(20020109)
_MATRIX = _RNG.standard_normal((25, 25))
_VECTOR = _RNG.standard_normal(25)


def kernel() -> float:
    """Small matrix-vector products and reductions between bytecodes.

    The mix resembles the library's branch-and-bound and descent inner
    loops: many numpy calls on p=25 arrays, driven from Python.
    """
    total = 0.0
    for _ in range(KERNEL_ITERS):
        w = _MATRIX @ _VECTOR
        total += float(w.max()) + int(np.argmin(np.abs(w)))
    return total


class SpeedProbe:
    """Times ``kernel`` on every ITIMER_PROF tick while started."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a sample is dropped
            return
        self._busy = True
        try:
            start = time.thread_time()
            kernel()
            self.samples.append(time.thread_time() - start)
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def mark(self) -> int:
        return len(self.samples)

    def window(self, begin: int, end: int) -> list[float]:
        return self.samples[begin:end]


def reference_seconds(cpu_s: float, kernels: list[float], speed: float) -> float:
    """CPU seconds less the probe's kernels, at the reference kernel speed."""
    return (cpu_s - sum(kernels)) * REFERENCE_KERNEL_S / speed


def mean_speed(kernels: list[float], fallback: list[float]) -> float:
    """Mean kernel time of a window; of the fallback when the window has none."""
    return statistics.fmean(kernels if kernels else fallback)


def command_speed(kernels: list[float], pass_speed: float) -> float:
    """Mean kernel time of a command, or of its pass when the command is short."""
    return statistics.fmean(kernels) if len(kernels) >= MIN_COMMAND_SAMPLES else pass_speed
