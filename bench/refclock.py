"""Time at a fixed reference speed of the host.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent within seconds (README.md, "Host noise"): the same pass takes 2.1 s
in one minute and 3.5 s in the next, with CPU time tracking wall time.  A
wall-clock median over one run cannot remove that, so the timed end-to-end
metrics are given in reference seconds instead:

* a fixed calibration kernel (pure-Python float loop, small numpy ops and
  big-integer arithmetic, the mix the package itself runs) takes
  ``KERNEL_REF_S`` seconds at the reference speed;
* while a ``RefClock`` runs, a real-time interval timer runs the kernel
  every ``PERIOD_S`` seconds in this process and records how long it took,
  so the host's speed is sampled throughout every timed interval;
* the reference time of an interval is the sum, over the gaps between
  samples, of each gap's wall time (kernel runs excluded) times the speed
  measured at its two ends, ``KERNEL_REF_S / kernel time``.

A change to the package moves reference time as it moves wall time; a
slow phase of the host moves the kernel too and cancels out.  Wall times
are still reported beside the reference ones.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

KERNEL_REF_S = 1e-3  # the calibration kernel's time at the reference speed
PERIOD_S = 0.02      # wall time between two samples of the host's speed


def calibration_kernel() -> float:
    """Fixed work, independent of the package; 0.5 to 0.9 ms on a 2-core Xeon VM."""
    s = 0.0
    for i in range(1, 1500):
        s += math.lgamma(i * 0.5) * 1e-6 + (i % 7) * 0.5
    a = np.arange(64, dtype=float)
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)
    x, m = 3**200, 7**150
    for _ in range(150):
        x = (x * 12345 + 17) % m
    return s + float(a[0]) + (x & 1)


class RefClock:
    """Samples the host's speed on a timer; converts wall intervals to reference time.

    Use as a context manager; ``mark()`` takes a sample at once and returns
    its index, and ``ref_seconds(a, b)`` is the reference time between two
    marks.  Only one RefClock may run at a time (it owns SIGALRM).
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._previous = None
        self._busy = False

    def _sample(self, *_signal_args) -> None:
        # A tick that lands while a sample is being taken is dropped, so
        # samples never overlap.
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        calibration_kernel()
        self.samples.append((start, time.perf_counter()))
        self._busy = False

    def __enter__(self) -> "RefClock":
        for _ in range(20):  # warm the kernel before any sample counts
            calibration_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        # A tick landing after the sample appends one more sample taken at
        # this point; the index returned is the last either way.
        self._sample()
        return len(self.samples) - 1

    def ref_seconds(self, a: int, b: int) -> float:
        """Reference time between the samples at indices ``a`` < ``b``."""
        total = 0.0
        for (s0, e0), (s1, e1) in zip(self.samples[a:b], self.samples[a + 1:b + 1]):
            speed = 0.5 * (KERNEL_REF_S / (e0 - s0) + KERNEL_REF_S / (e1 - s1))
            total += (s1 - e0) * speed
        return total
