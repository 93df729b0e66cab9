"""Per-flow goodput monitoring.

Protocol receivers report in-order application-level deliveries here.
The monitor aggregates per-flow byte counts into fixed-interval bins so
experiments can compute time series (Figures 7, 11, 12), averages
(fairness/friendliness indices) and per-sample standard deviations
(stability index, §3.6) without storing every packet.
"""

from __future__ import annotations

import math
from collections import defaultdict
from math import trunc
from typing import Dict, List, Optional, Tuple

#: Snap tolerance for bin-boundary arithmetic: a t0/t1 within 1e-9 s of a
#: bin edge is treated as exactly on the edge, so float noise cannot flip
#: the final bin in or out of an average.
_EDGE_EPS = 1e-9

from repro.sim.engine import Simulator


class FlowMonitor:
    def __init__(self, sim: Simulator, bin_width: float = 0.1):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.sim = sim
        self.bin_width = bin_width
        self._bins: Dict[object, Dict[int, int]] = defaultdict(dict)
        self.total_bytes: Dict[object, int] = defaultdict(int)
        self.first_seen: Dict[object, float] = {}

    def on_deliver(self, flow: object, nbytes: int, data: object = None) -> None:
        """Record ``nbytes`` of goodput for ``flow`` at the current time.

        Takes a transport's delivery callback as it is made: TCP's sink
        passes ``(size)``, UDT's receive buffer ``(size, data)``; goodput
        counts bytes, so ``data`` is not read.
        """
        t = self.sim.now
        bins = self._bins.get(flow)
        if bins is None:  # first record of this flow (credit_span is the other)
            self.first_seen.setdefault(flow, t)
            bins = self._bins[flow]
        self.total_bytes[flow] += nbytes
        b = trunc(t / self.bin_width)  # int() of a float, without the type call
        bins[b] = bins.get(b, 0) + nbytes

    def credit_span(self, flow: object, t0: float, t1: float, nbytes: int) -> None:
        """Credit ``nbytes`` of goodput spread uniformly over [t0, t1).

        The fluid tier (repro.sim.fluid) integrates delivery analytically
        and books the result here instead of per packet.  Bytes are
        apportioned to bins by exact overlap with cumulative rounding, so
        the sum credited always equals ``nbytes`` — byte conservation is
        what the hybrid≡packet equivalence tests lean on.
        """
        if nbytes <= 0 or t1 <= t0:
            return
        self.first_seen.setdefault(flow, t0)
        self.total_bytes[flow] += nbytes
        w = self.bin_width
        span = t1 - t0
        b0 = int(math.floor(t0 / w + _EDGE_EPS))
        b1 = max(b0 + 1, int(math.ceil(t1 / w - _EDGE_EPS)))
        bins = self._bins[flow]
        covered = 0.0
        given = 0
        for b in range(b0, b1):
            hi = min(t1, (b + 1) * w)
            covered += hi - max(t0, b * w)
            target = nbytes if b == b1 - 1 else int(round(nbytes * covered / span))
            add = target - given
            if add:
                bins[b] = bins.get(b, 0) + add
                given = target

    # -- queries ---------------------------------------------------------
    def flows(self) -> List[object]:
        return list(self.total_bytes)

    def throughput_bps(
        self, flow: object, t0: float = 0.0, t1: Optional[float] = None
    ) -> float:
        """Average goodput in bits/s over [t0, t1) at bin resolution.

        Boundary rule (explicit, float-rounding-proof): a bin is counted
        iff it *overlaps* the half-open interval [t0, t1) — partial bins
        at both ends are included in full.  Edges within 1e-9 s of a bin
        boundary are snapped to it, so ``t1`` landing exactly on a
        boundary excludes the bin starting there regardless of whether
        the division rounds to ``9.999...`` or ``10.000...1``.
        """
        if t1 is None:
            t1 = self.sim.now
        if t1 <= t0:
            return 0.0
        w = self.bin_width
        b0 = int(math.floor(t0 / w + _EDGE_EPS))  # first bin overlapping t0
        b1 = int(math.ceil(t1 / w - _EDGE_EPS))  # exclusive: bins end before t1
        if b1 <= b0:
            b1 = b0 + 1
        total = sum(n for b, n in self._bins.get(flow, {}).items() if b0 <= b < b1)
        return total * 8.0 / (t1 - t0)

    def series(
        self,
        flow: object,
        interval: float,
        t0: float = 0.0,
        t1: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """(time, throughput bits/s) samples at ``interval`` granularity.

        ``interval`` must be an integer multiple of the bin width.
        """
        if t1 is None:
            t1 = self.sim.now
        k = round(interval / self.bin_width)
        if k < 1 or abs(k * self.bin_width - interval) > 1e-9:
            raise ValueError(
                f"interval {interval} must be a multiple of bin width {self.bin_width}"
            )
        bins = self._bins.get(flow, {})
        out = []
        t = t0
        while t + interval <= t1 + 1e-12:
            b0 = int(t / self.bin_width)
            total = sum(bins.get(b0 + i, 0) for i in range(k))
            out.append((t + interval, total * 8.0 / interval))
            t += interval
        return out

    def sample_matrix(
        self, flows: List[object], interval: float, t0: float, t1: float
    ) -> List[List[float]]:
        """Row per flow of throughput samples — input to the stability index."""
        return [[v for _, v in self.series(f, interval, t0, t1)] for f in flows]
