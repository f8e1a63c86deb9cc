"""Times at a fixed reference CPU speed.

On a shared machine the CPU's speed drifts: other tenants slow this
process down by up to 2x, in phases that last from seconds to minutes
(CPU time and wall time move together, so the slowdown is in the CPU, not
in waiting). No estimator over a run of a minute escapes phases that long.
So a small fixed pure-Python kernel runs just before and just after each
timed part, and every half second inside it, and the part's time is
rescaled by how long the kernel took:

    at_reference(seconds, ref) = seconds * REFERENCE_S / ref

which is the time the part would have taken had the kernel run in
REFERENCE_S. The kernel is benchmark code, so a change to the program does
not move it, while a change of machine speed moves kernel and part alike.
"""
from __future__ import annotations

import signal
import statistics
import time

# Kernel duration on an unloaded 2-vCPU Xeon virtual machine (Python
# 3.11), close to its fastest there; it only sets the scale of the figures.
REFERENCE_S = 0.0062

SAMPLE_EVERY_S = 0.5

_TABLE_SIZE = 1024
_ITERATIONS = 20_000


def _kernel() -> float:
    table = {j: (0.0, "") for j in range(_TABLE_SIZE)}
    total = 0.0
    for i in range(_ITERATIONS):
        table[i & (_TABLE_SIZE - 1)] = (i * 0.5, str(i & 63))
        total += table[(i * 7) & (_TABLE_SIZE - 1)][0]
    return total


def at_reference(seconds: float, ref: float) -> float:
    return seconds * REFERENCE_S / ref


class Clock:
    """Runs the kernel for the stopwatches of one pass or set-up.

    It remembers the latest kernel run, so that back-to-back stopwatches
    share the run between them. With `sampling` off, the kernel does not
    run inside timed blocks (as while spans are traced).
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.last = (-1.0, REFERENCE_S)     # (end, duration) of latest run

    def reference_seconds(self) -> float:
        """Run the kernel once and return how long it took."""
        t0 = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.last = (end, end - t0)
        return end - t0

    def recent_reference_seconds(self) -> float:
        """The latest kernel time when nothing ran since; else a new run."""
        end, seconds = self.last
        if time.perf_counter() - end < 1e-4:
            return seconds
        return self.reference_seconds()

    def stopwatch(self) -> "Stopwatch":
        return Stopwatch(self)


class Stopwatch:
    """Times a block and the CPU speed while it runs.

    The kernel runs just before and just after the block, and, when the
    clock samples, every SAMPLE_EVERY_S inside it from a SIGALRM handler.
    After the block: `seconds` is its wall time without the kernel runs
    inside it, and `ref` the mean kernel time of all the runs.
    """

    def __init__(self, clock: Clock):
        self.clock = clock

    def __enter__(self):
        self.refs = [self.clock.recent_reference_seconds()]
        self.inside = 0.0
        if self.clock.sampling:
            self.handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        self.t0 = time.perf_counter()
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.refs.append(self.clock.reference_seconds())
        self.inside += time.perf_counter() - t0

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.t0
        if self.clock.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.handler)
        self.seconds = elapsed - self.inside
        self.refs.append(self.clock.reference_seconds())
        self.ref = statistics.fmean(self.refs)
        return False

    @property
    def at_reference(self) -> float:
        return at_reference(self.seconds, self.ref)
