"""Host speed, from a fixed kernel timed between the program's calls.

The reference machine (2 vCPUs of a shared host) changes speed by up to
about 25% within seconds and between periods of minutes, for any code alike:
the process stays on the CPU (CPU time tracks wall time) but runs slower.
A run's raw timings therefore move with the share of slow phases it got.

So the benchmark times a small kernel of its own between the program's
calls, and scales the timings of a phase (setup, or the loop of calls) by
how slow the kernel ran in that phase.  The kernel is a Python loop, NumPy
element-wise work and a sort: no BLAS, so no BLAS thread setting changes it.
A timing t in a phase whose kernel samples have median k becomes
``t * REF_SAMPLE_S / k``: the seconds it would have taken at the host speed
at which one sample takes ``REF_SAMPLE_S``.  The program never runs the
kernel, so a change to the program moves only t.

The median over a phase, rather than the samples next to each call, is used
because calls of a second or more (``ablate``) change speed inside the call:
two samples at its ends then add noise rather than remove it.

What this cannot separate from host noise is work the program leaves
running between its calls (a background thread), which would slow the
kernel too.  The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median sample on the reference machine, so that scaled figures read close
# to raw ones there.
REF_SAMPLE_S = 1.0e-3
# Kernel runs per sample; the sample is their median.
REPEATS = 3


class HostSpeed:
    """Kernel samples taken so far, and the scale factors they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._grid = rng.standard_normal((64, 64))
        self._values = rng.standard_normal(4096)
        self.samples: list[float] = []
        self._kernel()
        self.last = time.perf_counter()  # time of the latest sample

    def _kernel(self) -> None:
        total = 0
        for i in range(6000):
            total += i * i
        for _ in range(16):
            np.tanh(self._grid * 0.5 + self._grid)
            np.sort(self._values)

    def sample(self) -> int:
        """Time the kernel; returns the new sample's index."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        self.last = time.perf_counter()
        return len(self.samples) - 1

    def sample_due(self, every_s: float) -> None:
        """One sample per `every_s` seconds passed since the latest sample.

        Between long calls this takes several samples at once, so a phase
        of few calls still gets as many samples as its length allows.
        """
        for _ in range(int((time.perf_counter() - self.last) / every_s)):
            self.sample()

    def scale(self, first: int = 0) -> float:
        """Raw seconds -> reference seconds, from the samples from `first` on."""
        return REF_SAMPLE_S / statistics.median(self.samples[first:])

    def relative(self) -> float:
        """Median host speed of the run; 1 is the reference, below 1 slower."""
        return REF_SAMPLE_S / statistics.median(self.samples)
