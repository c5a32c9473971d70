"""Durations in reference seconds: wall time corrected for the machine's speed.

On a shared machine the same single-threaded work takes from 0.8x to 1.3x
its usual wall time, and the speed drifts over tens of seconds, longer than
a run.  Medians over a run cannot remove drift of that length.  So the
benchmark times a fixed calibration kernel (the faster of two runs) right
before and right after every timed command; one calibration between two
commands serves both.  It scales the command's wall time by the kernel's
nominal time over the mean of the two.  When the machine runs at its usual
speed, a reference second is a wall second.

The kernel mixes the three kinds of work the program does: a pure-Python
loop, many cheap numpy calls on a 32x32 array (call overhead, like the
solvers' time steps), and FFT, activation and channel mixing over a
16x128x128 array (memory traffic, like the paper-size forward).  Its inputs
are fixed, so it depends on nothing the benchmark measures.  Measured in one
process over 40 s, the 5 s windows of ``loss_and_grad`` (batch 5, 32x32)
spread by 7-17% in wall time and by 2% against this kernel; those of one
desk Allen-Cahn trajectory by 10-20% and 2-9%.  No single part of the
kernel tracked both as well as the three together.
"""

from __future__ import annotations

import time

import numpy as np

#: wall time of one calibration kernel on the machine the bounds were set
#: on (2-vCPU Xeon VM, Python 3.11, numpy 2.4, one thread)
NOMINAL_S = 0.04


class ReferenceClock:
    def __init__(self):
        rng = np.random.default_rng(20251116)
        self._small = rng.normal(size=(32, 32))
        self._large = rng.normal(size=(16, 128, 128))
        self._mix = rng.normal(size=(16, 16)) / 16.0
        self.calibrate()  # the first call pays FFT planning and allocation
        self.start()

    def _kernel(self) -> float:
        total = 0
        for i in range(100_000):
            total += i * i % 7
        u = self._small
        for _ in range(400):
            u = u * 0.5 + 0.1
            u = u - u.mean()
        v = np.fft.fft2(self._large).real
        w = np.einsum("oi,ixy->oxy", self._mix, np.tanh(v + 0.044715 * v**3))
        return total + float(u[0, 0] + w[0, 0, 0])

    def calibrate(self) -> float:
        """The faster of two kernel runs, so one interruption cannot skew a scale."""
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return min(times)

    def start(self) -> None:
        """Calibrate right before a series of durations to be scaled."""
        self._before = self.calibrate()

    def scale(self, wall: float) -> float:
        """Reference seconds of a duration that has just ended.

        It began after ``start`` or after the previous ``scale``, whose
        calibration then serves as this duration's "before".
        """
        after = self.calibrate()
        reference = wall * NOMINAL_S / (0.5 * (self._before + after))
        self._before = after
        return reference
