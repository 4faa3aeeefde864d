"""Host-speed calibration: scales measured times to a reference host speed.

On a shared virtual machine the speed of one CPU drifts by up to 1.5x over
seconds to minutes, with CPU time tracking wall time: the host slows the
virtual CPU rather than taking it away, so CPU time does not remove the
drift. The benchmark therefore runs a fixed pure-Python loop
between its samples and scales each sample by `REFERENCE_S` over the median
time of the loop's runs nearest to it. A change to qlint moves a scaled time
as it moves the raw one; a change in host speed moves the loop as well and
cancels out.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter

REFERENCE_S = 0.002  # the loop's time on the reference host
EVERY_S = 0.1  # longest gap between two runs of the loop, outside a long sample
NEAREST = 5  # runs of the loop whose median scales a sample
LOOP_ITERATIONS = 15_000


def calibration_loop() -> int:
    """Fixed interpreter-bound work: dict reads and writes on int keys."""
    counts: dict[int, int] = {}
    for i in range(LOOP_ITERATIONS):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return len(counts)


class HostSpeed:
    """Runs of the calibration loop over one run, and the scaling they give."""

    def __init__(self) -> None:
        self.marks: list[float] = []  # midpoint of each run of the loop
        self.times: list[float] = []  # its duration in seconds

    def calibrate(self) -> None:
        started = perf_counter()
        calibration_loop()
        ended = perf_counter()
        self.marks.append((started + ended) / 2)
        self.times.append(ended - started)

    def calibrate_if_due(self) -> None:
        if not self.marks or perf_counter() - self.marks[-1] >= EVERY_S:
            self.calibrate()

    def factor(self, started: float, elapsed: float) -> float:
        """REFERENCE_S over the median loop time nearest the sample's midpoint."""
        middle = started + elapsed / 2
        i = bisect_left(self.marks, middle)
        window = range(max(0, i - NEAREST), min(len(self.marks), i + NEAREST))
        nearest = sorted(window, key=lambda j: abs(self.marks[j] - middle))[:NEAREST]
        return REFERENCE_S / statistics.median(self.times[j] for j in nearest)

    def scaled(self, started: float, elapsed: float) -> float:
        return elapsed * self.factor(started, elapsed)
