"""Host-speed calibration: a fixed loop timed beside the program.

The box this benchmark runs on is a few cores of a shared host, and its
speed moves in phases: for tens of minutes at a time every CPU-bound
timing reads 25-70 % higher than in the quiet phases between, whatever
the code (imports, simulator, this loop).  No statistic over the
repetitions of one run removes that, so the CPU-bound end-to-end timings
are reported in *reference seconds*: measured seconds divided by how
many times slower than :data:`REF_SPIN_S` the calibration loop ran while
they were being measured.

The loop uses nothing from ``repro``: a change to the program cannot
move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Dict

#: Seconds one :func:`spin` took, interleaved with a simulated workload, in
#: a quiet phase of the box the benchmark was defined on (median over 41
#: repetitions of 65 spins).  The unit of every normalised timing.
REF_SPIN_S = 0.0044


def spin() -> float:
    """Interpreter work of the simulator's kind (heap of tuples, integer
    arithmetic, a bounded working set); returns the seconds it took."""
    push, pop = heapq.heappush, heapq.heappop
    heap: list = []
    x = 1
    t0 = perf_counter()
    for i in range(6000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x, i))
        if len(heap) > 1000:
            pop(heap)
    return perf_counter() - t0


class HostSpeed:
    """Calibration spins made beside one repetition."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.spins = 0

    def spin(self, times: int = 1) -> None:
        for _ in range(times):
            self.seconds += spin()
        self.spins += times

    def result(self) -> Dict[str, float]:
        return {"calib_s": self.seconds, "calib_spins": self.spins}


def slowdown(child: Dict[str, float]) -> float:
    """How many times slower than the reference the host ran (1.0 = reference)."""
    return child["calib_s"] / (child["calib_spins"] * REF_SPIN_S)
