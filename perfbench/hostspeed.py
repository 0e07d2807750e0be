"""Host speed, sampled around and inside timed segments, and times scaled by it.

On a shared host the same code runs at different speeds from minute to
minute: one ``figure1`` pass took 5.1 s at one time and 10.8 s an hour
later in the same process, while nothing else ran in the machine.  So the
benchmark times a fixed reference kernel -- a small event loop in plain
Python, in this file and independent of the program under test -- between
timed segments and, on a timer signal, every :data:`TICK_S` inside them.
Each segment's host time is scaled by the mean speed of the samples taken
from just before it to just after it::

    ref_seconds = seconds * mean(REF_KERNEL_NS / kernel_ns)

A *reference second* is then the time the segment would take on a host
where the kernel takes :data:`REF_KERNEL_NS`.  A change that slows the
program raises reference seconds just as it raises seconds; a slower host
raises both the segment and the kernel, and the product stays put.  The
mean is over speeds, not times, because the timer samples are spread
evenly in time, and a segment's work is its time multiplied by its mean
speed.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Kernel time that defines one reference second, close to the kernel's
#: time on an unloaded 2.1 GHz Xeon vCPU under CPython 3.11.
REF_KERNEL_NS = 1_000_000

#: Seconds between the samples taken inside a segment.
TICK_S = 0.1

#: Kernel runs per sample between segments; the median drops an interrupt.
_REPEATS = 3


def kernel(steps: int = 1500) -> float:
    """A fixed little event loop: heap pops and pushes, dict and float work."""
    heap = [(float(i % 7), i) for i in range(64)]
    heapq.heapify(heap)
    load: dict[int, float] = {}
    acc = 0.0
    for step in range(steps):
        t, k = heapq.heappop(heap)
        slot = k & 31
        load[slot] = load.get(slot, 0.0) * 0.5 + t
        acc += load[slot] / (1.0 + step)
        heapq.heappush(heap, (t + 1.0 + (k * 2654435761 % 97) / 97.0, k))
    return acc


class Meter:
    """Kernel samples of one pass, and a clock that leaves the ticks out.

    Inside ``with meter:`` a timer signal runs the kernel every ``tick_s``
    seconds; ``tick_s=None`` takes samples only where :meth:`boundary` is
    called (the traced pass, whose spans must not absorb the ticks).
    :meth:`clock` is ``perf_counter_ns`` minus the time the ticks took, so
    segments timed with it exclude them.
    """

    def __init__(self, tick_s: float | None = TICK_S):
        self.tick_s = tick_s
        self.samples: list[int] = []
        self.tick_ns = 0
        self._old_handler = None

    def clock(self) -> int:
        return time.perf_counter_ns() - self.tick_ns

    def _time_kernel(self) -> int:
        t0 = self.clock()
        kernel()
        return self.clock() - t0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        spent = time.perf_counter_ns() - t0
        self.samples.append(spent)
        self.tick_ns += spent

    def __enter__(self) -> Meter:
        if self.tick_s:
            self._old_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.tick_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def boundary(self) -> int:
        """Sample between segments; returns the sample's index."""
        times = [self._time_kernel() for _ in range(_REPEATS)]
        self.samples.append(int(statistics.median(times)))
        return len(self.samples) - 1

    def speed_since(self, first: int) -> float:
        """Mean speed, in reference seconds per second, of samples[first:]."""
        return statistics.fmean(REF_KERNEL_NS / k for k in self.samples[first:])
