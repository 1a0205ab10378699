"""The host's speed, read with a fixed snippet of Python that shares no code with the package.

On a shared virtual machine the speed of one CPU changes by up to 2x for
seconds at a time, and the two CPUs change independently, so a speed read
before or after a multi-second call, or on the other CPU, does not tell
the speed during it. ``Sampler`` therefore runs the snippet on a timer
signal in the worker itself, interleaved with the work, and reports how
much slower than the reference the snippet ran over a window, in CPU time.
At times other tasks on the machine also keep the worker waiting for a
CPU; that wait passes on the wall clock but is not the program's own, and
``waited_s`` reads it. The driver takes the wait out of wall times and
divides every time by the slowness: the benchmark's times are seconds at
the reference speed.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0006  # snippet CPU seconds in a fast spell of the 2-core Xeon VM the bounds were set on
PERIOD_S = 0.02  # timer period while the work runs


def snippet() -> None:
    """Fixed work of the kind the package does: small rationals, integers, dicts and lists."""
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 121):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[i % 31] = table.get(i % 31, 0) + i * i
    row = [(k * 2654435761) % 1000003 for k in range(400)]
    sum(sorted(row)[::7])


class Sampler:
    """Snippet timings, each [wall seconds, CPU seconds], taken on demand or on a timer."""

    def __init__(self):
        self.samples: list[list[float]] = []

    def measure(self, count: int) -> list[list[float]]:
        """Run the snippet ``count`` times now; return those samples."""
        first = len(self.samples)
        for _ in range(count):
            self._tick()
        return self.samples[first:]

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_signal) -> None:
        cpu, start = time.process_time(), time.perf_counter()
        snippet()
        self.samples.append([time.perf_counter() - start, time.process_time() - cpu])


def slowness(samples: list[list[float]]) -> float:
    """Mean snippet CPU time over the reference time.

    CPU time, because a wait for the CPU that hits a short snippet would
    swamp its wall time. The mean, not the median: timer samples are
    spread evenly over the window, so their mean weighs each slow or fast
    spell by its length.
    """
    return statistics.fmean(cpu for _, cpu in samples) / REFERENCE_S


def spent(samples: list[list[float]]) -> tuple[float, float]:
    """(wall, CPU) seconds the samples themselves took, to be taken out of a timed window."""
    return sum(wall for wall, _ in samples), sum(cpu for _, cpu in samples)


def waited_s() -> float:
    """Seconds this process has so far waited, runnable, for a CPU (run_delay in
    /proc/self/schedstat), or 0 where the kernel does not report it."""
    try:
        with open("/proc/self/schedstat") as f:
            return int(f.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0
