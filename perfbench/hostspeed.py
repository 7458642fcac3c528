"""Wall times scaled to a reference host speed.

On a machine shared with other tenants, the speed of a core switches
between levels up to 50% apart, for seconds to tens of minutes at a
time.  Raw, the median MR solve time of a 30-second run spread by 26%
across ten seeds, and the medians of two such sets of runs differed by
32%.  So every end-to-end time is scaled: a fixed reference kernel (a
pure-Python loop and a numpy gather and sort, calling no ``repro`` code)
is timed around each measured interval, and the interval's wall time is
multiplied by ``REFERENCE_S`` over the kernel's mean time at its two
ends.  A scaled time reads as seconds on a host where one kernel round
takes ``REFERENCE_S``.  A change to ``repro`` moves it exactly as it
moves wall time, since the kernel does not run ``repro``; a change of
host level moves the kernel too, and mostly cancels.  Raw wall times are
printed next to the scaled ones, and per-layer times are raw.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds per kernel round that scaled times are expressed against.
REFERENCE_S = 0.010
#: Kernel rounds per calibration; their median is the kernel time.
ROUNDS = 3


class HostClock:
    """Scale factors from a reference kernel timed between intervals.

    Each :meth:`factor` call times the kernel and returns the scale for
    the interval since the previous call (or since construction).
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._data = rng.random(1_000_000)
        self._index = rng.integers(0, self._data.size, 250_000)
        #: Every kernel time measured, in seconds.
        self.kernel: list[float] = []
        self._last = self._kernel_s()

    def _round(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        self._data[self._index].sum()
        np.sort(self._data[:100_000])
        return time.perf_counter() - t0

    def _kernel_s(self) -> float:
        seconds = statistics.median(self._round() for _ in range(ROUNDS))
        self.kernel.append(seconds)
        return seconds

    def factor(self) -> float:
        """``REFERENCE_S`` over the mean kernel time at the interval's ends."""
        now = self._kernel_s()
        scale = 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return scale
