"""Machine speed, from a fixed loop timed around and during each request.

On a shared virtual machine the speed of a CPU moves with its neighbours'
load: on the 2-vCPU machine of the baseline, the same table request took
0.14 s in one minute and 0.29 s a few minutes later.  Work that stands
still shows the same swing, so the benchmark times a fixed loop right
before and right after each request and, from a timer signal, every
``Sampler.INTERVAL`` seconds during it, and reports

    time at nominal speed = wall time * nominal / (median loop time)

in seconds: the wall time the request would take on the machine at the
speed at which the loop takes its ``nominal`` time.  The loops' own time
is taken out of the request's wall time.  A change to the program moves
the wall time and leaves the loop alone, so it moves the scaled time by
the same share.

For a short request the loops around it give the speed.  A long one
holds many loops, which outvote the two around it: on one-second
``verify`` requests the loops around them alone missed what happened
during them, and ten repeats of one request spread more when scaled that
way than in wall time.

Neighbours slow big-integer work and numpy work by different shares, so
there are two loops, one of each kind, and each workload is scaled by the
loop of its kind.  Set-up, which runs in fresh interpreters, is scaled by
the exact loop timed right before and right after it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction


def _exact_work() -> int:
    """Exact rational arithmetic and dict updates, like the DP and closed forms."""
    x = Fraction(1, 3)
    bits = 0
    for i in range(1, 200):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        bits += x.numerator.bit_length()
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return bits + len(counts)


def _array_work() -> int:
    """64-bit mixing and selects over 256 KB arrays, like the Monte Carlo
    draws.  The arrays stay small because the loop also runs inside
    ``simulate``, where larger ones would add to the peak memory."""
    import numpy as np

    z = np.arange(1 << 15, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for _ in range(8):
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = z ^ (z >> np.uint64(31))
    return int(np.where(z & np.uint64(1), 1, 2).sum())


class Loop:
    """One fixed loop, with its time on the baseline machine in a quiet
    minute (Python 3.11, numpy 2.4, x86_64) as a fixed scale, so that
    scaled times read as seconds."""

    def __init__(self, work, nominal_s: float):
        self.work = work
        self.nominal_s = nominal_s

    def fastest(self) -> float:
        """Time of the loop now: the faster of two runs, so one interrupt
        does not count."""
        times = []
        for _ in range(2):
            start = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - start)
        return min(times)

    def time(self) -> float:
        """``fastest()``, with the heap collected first, so garbage left by
        the work before does not slow the loop down."""
        gc.collect()
        return self.fastest()

    def scaled(self, elapsed: float, before: float, after: float, during=()) -> float:
        """``elapsed`` wall seconds at nominal speed, given the loop times
        right before and right after it and any taken during it."""
        return elapsed * self.nominal_s / statistics.median([before, after, *during])


class Sampler:
    """Times the loop every ``INTERVAL`` seconds, from a ``SIGALRM``
    handler, while it measures a call.

    Python runs the handler between bytecodes of the program, which it
    leaves alone; a long call into C delays the next loop until it
    returns.  A call shorter than ``INTERVAL`` is not interrupted at all.
    """

    INTERVAL = 0.15

    def __init__(self, loop: Loop):
        self.loop = loop
        self.times: list[float] = []
        self.paused = 0.0  # seconds spent in the handler

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(self.loop.fastest())
        self.paused += time.perf_counter() - start

    def measure(self, fn, *args):
        """``fn(*args)``, its wall seconds without the time spent in the
        loop, and the loop times taken during it."""
        self.times, self.paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        return result, elapsed - self.paused, self.times


EXACT = Loop(_exact_work, 0.0017)
ARRAYS = Loop(_array_work, 0.0007)

# The loop of each workload's kind of work; set-up uses EXACT.
WORKLOAD_LOOPS = {
    "exact-tables": EXACT,
    "closed-forms": EXACT,
    "monte-carlo": ARRAYS,
    "verify": EXACT,
}
