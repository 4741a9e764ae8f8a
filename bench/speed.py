"""Machine-speed correction of op times on a machine whose speed drifts.

On the 2-CPU machine this benchmark was built on, the same code runs up to
1.6x slower for 2 to 100 seconds at a time, with nothing else running on it,
and the two CPUs change state independently. The slowdown is not steal time,
and process CPU time rises with it. A 20-second run lands in the fast state,
the slow one or a mix, so plain wall-clock op times spread by up to 0.28
(quartile distance over median) across ten runs.

A fixed pure-Python kernel runs after every op. Each op interval is divided
by the local speed factor, the median kernel time within window_s of the
interval over REF_S, and so reads in reference-speed seconds: seconds on a
machine where the kernel takes REF_S. The factor fits interpreter-bound
code, which is what rfplan's hot paths are at the seed commit. It
over-corrects other work: over 8 minutes of both states, a numpy-bound
computation slowed by 0.44 and a fresh interpreter by 0.7 of the kernel's
slowdown (slopes of log time on log kernel time). Result files keep the
plain wall-clock figures beside the corrected ones.
"""
from __future__ import annotations

import bisect
import math
import statistics
import time

REF_S = 0.5e-3  # a fixed unit: about the kernel's time in the fast state


def kernel() -> None:
    """Interpreter-bound work shaped like rfplan's: float math, tuples, dicts, a sort."""
    total = 0.0
    for i in range(3000):
        total += math.sqrt(i) * 1.5
    table = {i: (i, float(i)) for i in range(1500)}
    sorted(table.values(), key=lambda row: -row[1])


class SpeedClock:
    def __init__(self, window_s: float, reps: int = 3) -> None:
        self.window_s, self.reps = window_s, reps
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(self.reps):
            t0 = time.perf_counter()
            kernel()
            self.times.append(t0)
            self.samples.append(time.perf_counter() - t0)

    def factor(self, start: float, end: float) -> float:
        """Speed factor for an interval: >1 means the machine ran slow then."""
        lo = bisect.bisect_left(self.times, start - self.window_s)
        hi = bisect.bisect_right(self.times, end + self.window_s)
        if lo == hi:  # nothing nearby: fall back to the nearest sample
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return statistics.median(self.samples[lo:hi]) / REF_S

    def adjust(self, start: float, end: float) -> float:
        """(end - start) in reference-speed seconds."""
        return (end - start) / self.factor(start, end)

    def median_s(self) -> float:
        return statistics.median(self.samples) if self.samples else math.nan
