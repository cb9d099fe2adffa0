"""The host's speed over a run, measured with a fixed pure-Python kernel.

The benchmark shares a few cores of a host whose speed drifts: the same
interpreter loop takes 0.7 ms or 1.3 ms from one tenth of a second to the
next, and the same run can read 9 or 16 requests per second depending on
when it is made.  The drift slows pure-Python code largely alike, so the
benchmark times a fixed kernel every ``SAMPLE_EVERY_S`` seconds during a
run and states every end-to-end time at a reference speed:

    reported = measured * REFERENCE_KERNEL_S / kernel time near that moment

The kernel is this module's own code and imports nothing from
``defeasidl``, so a change to the package moves the measured times and not
the kernel: a faster or slower package reads faster or slower.  The
measured wall-clock figures are printed beside the reported ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# The kernel's time at the reference speed: roughly its median on the
# 2-vCPU VM (Python 3.11.7) the bounds in BENCHMARK.json were set on.
REFERENCE_KERNEL_S = 0.001
SAMPLE_EVERY_S = 0.1
REPS_PER_SAMPLE = 3
# Kernel samples within this many seconds of an interval give its speed:
# the speed changes from one tenth of a second to the next, and a window of
# two sampling periods holds at least the samples just before and after.
WINDOW_S = 0.2

# A fixed 40-node digraph: node i points to 3i+1, 5i+3 and 7i+5 (mod 40).
_EDGES = tuple((i, (k * i + k - 2) % 40) for i in range(40) for k in (3, 5, 7))


def kernel() -> int:
    """Transitive closure of ``_EDGES`` by a semi-naive join over tuples,
    sets and dicts, the data structures the package spends its time in."""
    succ: dict[int, list[int]] = {}
    for a, b in _EDGES:
        succ.setdefault(a, []).append(b)
    closure = set(_EDGES)
    delta = closure
    while delta:
        new = set()
        for a, b in delta:
            for c in succ.get(b, ()):
                pair = (a, c)
                if pair not in closure:
                    new.add(pair)
        closure |= new
        delta = new
    return len(closure)


class HostSpeed:
    """Kernel samples of one run, as (moment, kernel seconds)."""

    def __init__(self) -> None:
        self.moments: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        """Time the kernel; the fastest of a few repetitions, with the
        collector off, so an interrupt or a collection is not counted."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPS_PER_SAMPLE):
                start = perf_counter()
                kernel()
                best = min(best, perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.moments.append(perf_counter())
        self.kernel_s.append(best)

    def maybe_sample(self) -> None:
        if not self.moments or perf_counter() - self.moments[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to reference time for the interval
        ``start .. end``: the median kernel time of the samples taken in it
        or within ``WINDOW_S`` of it, over the reference kernel time.  The
        callers sample within ``SAMPLE_EVERY_S`` before every interval."""
        low = bisect.bisect_left(self.moments, start - WINDOW_S)
        high = bisect.bisect_right(self.moments, end + WINDOW_S)
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s[low:high])
