"""Host-speed reference: scales measured times to a fixed host speed.

A shared 2-vCPU VM (where this benchmark was tuned) changes speed from one
second to the next, by up to 1.9x: the same pure-Python loop ran 6.6 ms in
one minute and 10.8 ms the next, with no other work of the benchmark's in
between.  Timed ops alone cannot tell that from a change in the program.
So the benchmark times a fixed reference kernel, which no change to
syncword can touch, right next to the work it measures, and scales each
measured time by REFERENCE_S / (kernel time around it).  On a host running
at the reference speed a scaled time equals the raw one.  Raw times are
kept in each run's record next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from itertools import permutations
from time import perf_counter

# One kernel run on a 2-vCPU x86-64 VM with Python 3.11.7 in its fast phase.
REFERENCE_S = 0.0004
# How often the sampler runs the kernel, and how far around an op it looks
# for kernel runs to scale the op by.
INTERVAL_S = 0.02
WINDOW_S = 0.05
KERNEL_STEPS = 120


def _kernel() -> tuple:
    """Fixed work in the program's own mix: Fraction arithmetic, bit-mask
    arithmetic, dict inserts, list building and tuple permutations."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, KERNEL_STEPS):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        m = (i * 40503) & 0xFFFF
        seen[m ^ (m & -m)] = [j * i % 13 for j in range(8)]
    best = min(tuple(p[j] for j in (2, 0, 1, 3)) for p in permutations(range(4)))
    return acc, len(seen), best


def probe() -> float:
    """Seconds taken by one kernel run."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor that turns a time measured next to `probe_s` into reference time."""
    return REFERENCE_S / probe_s


class Sampler:
    """Runs the kernel every INTERVAL_S, from SIGALRM, while in a `with` block.

    The kernel runs in the main thread between bytecodes, so it also samples
    the host's speed in the middle of long ops.  Its own time is taken out of
    the op it interrupted (`kernel_time`).  A forked child inherits the
    handler but not the timer, so it is never interrupted.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_):
        t0 = perf_counter()
        _kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _between(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0),
                     bisect.bisect_right(self.starts, t1))

    def kernel_time(self, t0: float, t1: float) -> float:
        """Seconds the kernel ran inside [t0, t1]."""
        return sum(self.durations[self._between(t0, t1)])

    def factor(self, t0: float, t1: float) -> float:
        """Scale for work done in [t0, t1]: kernel runs within WINDOW_S of it,
        or the nearest one when none is that close."""
        near = self.durations[self._between(t0 - WINDOW_S, t1 + WINDOW_S)]
        if not near:
            i = min(bisect.bisect_left(self.starts, t0), len(self.starts) - 1)
            near = [self.durations[i]]
        return scale(statistics.fmean(near))
