"""Machine-speed reference: a fixed kernel, timed between pieces of work.

On the shared 2-vCPU virtual machine this benchmark was built on, the same
work takes up to twice as long from one second to the next, and slow
stretches can last minutes (bench/README.md, "Machine speed"). A raw wall
time therefore measures the neighbours as much as the program. The
benchmark times a small fixed kernel, independent of the program, after
every simulation step or decide scene, outside every timed interval, and
reports each piece of work scaled by that kernel:

    scaled = measured * NOMINAL_S / median(kernel times within WINDOW_S)

so a time reads as seconds at the speed where the kernel takes NOMINAL_S.
A change to the program moves the scaled time as it moves the raw one;
a change of machine speed moves both the piece and the kernel, though
not always by the same factor.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 1.0e-3   # kernel seconds that define a scaled second
WINDOW_S = 2.0       # kernel samples this close to an interval's ends count

_X = np.linspace(0.0, 3.0, 32)
_TABLE = np.ones(2_000_000)   # 16 MB, larger than the program's working set
_PICKS = np.random.default_rng(0).integers(0, len(_TABLE), 20_000)


def kernel() -> float:
    """Fixed work, about 1.2 ms on the reference machine: a Python integer
    loop and numpy ufuncs on a 32-element array, shaped like the program's
    inner loops, then 20,000 random reads from a 16 MB table, which slow
    down when other tenants crowd the shared caches. Of the kernels tried
    (bench/README.md, "Machine speed"), this mix followed the program best."""
    s = 0
    for i in range(5000):
        s += i * i
    acc = 0.0
    for _ in range(50):
        y = np.exp(-_X * _X)
        acc += float(np.arctan2(np.hypot(_X, y), _X + 1.0).sum())
    return acc + s + float(_TABLE.take(_PICKS).sum())


class Speedometer:
    """Kernel samples in time order, and the scale they give an interval."""

    def __init__(self):
        self.at: list[float] = []     # perf_counter() at each sample's start
        self.took: list[float] = []   # wall seconds of each sample

    def sample(self) -> float:
        """Time the kernel once; return perf_counter() after it."""
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        return t1

    @staticmethod
    def warm(seconds: float) -> float:
        """Run the kernel for `seconds` without keeping the samples: back to
        back, it runs on warmer caches than a sample taken right after the
        program's work. Return perf_counter() at the end."""
        end = time.perf_counter() + seconds
        while True:
            kernel()
            if (t := time.perf_counter()) >= end:
                return t

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median kernel time within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        near = self.took[lo:hi]
        if not near:
            raise ValueError(f"no kernel sample within {WINDOW_S} s of the interval")
        return NOMINAL_S / statistics.median(near)

    def scale(self, t0: float, t1: float, seconds: float | None = None) -> float:
        """`seconds` (default t1 - t0) measured over [t0, t1], scaled."""
        return (t1 - t0 if seconds is None else seconds) * self.factor(t0, t1)

    def median_s(self) -> float:
        return statistics.median(self.took)
