"""Egress queue disciplines.

The paper's simulations all use DropTail with the queue sized to
``max(100, BDP)`` packets; RED is provided for ablations (queueing impacts
on TCP vs UDT, §3.7 footnote).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.sim.packet import Packet


class DropTailQueue:
    """FIFO queue bounded in packets (and optionally bytes).

    One admission rule for every discipline: an optional early-drop test
    (:attr:`early_drop`, ``None`` here), then the capacity bounds.
    :meth:`push` and :meth:`pop` are the queue's own interface;
    :class:`~repro.sim.link.Link` applies the same rule and the same
    bookkeeping to :attr:`packets` in its own frame, once per packet.
    """

    #: ``early_drop(qlen) -> bool``: drop an arriving packet before the
    #: capacity check (RED's test); ``None`` for plain DropTail.
    early_drop: Optional[Callable[[int], bool]] = None

    def __init__(self, capacity_pkts: int, capacity_bytes: Optional[int] = None):
        if capacity_pkts < 1:
            raise ValueError("queue needs room for at least one packet")
        self.capacity_pkts = capacity_pkts
        self.capacity_bytes = capacity_bytes
        #: the queued packets, oldest first
        self.packets: deque[Packet] = deque()
        self.bytes = 0
        self.drops = 0
        # occupancy high-water mark (observability; one compare per packet)
        self.peak_pkts = 0

    def push(self, pkt: Packet) -> bool:
        """Enqueue; returns False (and counts a drop) when refused."""
        packets = self.packets
        n = len(packets)
        size = pkt.size
        early_drop = self.early_drop
        if (
            (early_drop is not None and early_drop(n))
            or n >= self.capacity_pkts
            or (
                self.capacity_bytes is not None
                and self.bytes + size > self.capacity_bytes
            )
        ):
            self.drops += 1
            return False
        packets.append(pkt)
        self.bytes += size
        n += 1
        if n > self.peak_pkts:
            self.peak_pkts = n
        return True

    def pop(self) -> Optional[Packet]:
        if not self.packets:
            return None
        pkt = self.packets.popleft()
        self.bytes -= pkt.size
        return pkt

    def __len__(self) -> int:
        return len(self.packets)

    def __bool__(self) -> bool:
        return bool(self.packets)


class REDQueue(DropTailQueue):
    """Random Early Detection (gentle RED) over the DropTail base.

    Classic Floyd/Jacobson RED: an EWMA of the instantaneous queue length is
    compared against ``[min_th, max_th]``; in between, packets are dropped
    with probability growing to ``max_p`` (and to 1 between ``max_th`` and
    ``2*max_th`` in gentle mode).  The test is :meth:`early_drop`; the
    capacity bounds behind it are DropTail's.
    """

    def __init__(
        self,
        capacity_pkts: int,
        min_th: Optional[float] = None,
        max_th: Optional[float] = None,
        max_p: float = 0.1,
        weight: float = 0.002,
        rng=None,
    ):
        super().__init__(capacity_pkts)
        self.min_th = min_th if min_th is not None else capacity_pkts / 4
        self.max_th = max_th if max_th is not None else capacity_pkts / 2
        if not 0 < self.min_th < self.max_th:
            raise ValueError("need 0 < min_th < max_th")
        self.max_p = max_p
        self.weight = weight
        self.avg = 0.0
        self._count = 0  # packets since last early drop
        if rng is None:
            import random

            rng = random.Random(0)
        self.rng = rng

    # RED admits by DropTail's rule; the name is its own so that a
    # per-class wrapper (benchmarks/perf's tracer) can time it.
    push = DropTailQueue.push

    def early_drop(self, qlen: int) -> bool:
        """Update the average with ``qlen`` and decide an early drop."""
        self.avg += self.weight * (qlen - self.avg)
        if self.avg >= self.min_th:
            if self.avg >= 2 * self.max_th:
                p = 1.0
            elif self.avg >= self.max_th:
                # gentle region: max_p .. 1
                p = self.max_p + (self.avg - self.max_th) / self.max_th * (
                    1.0 - self.max_p
                )
            else:
                p = (
                    (self.avg - self.min_th)
                    / (self.max_th - self.min_th)
                    * self.max_p
                )
                # spread drops out: p/(1 - count*p)
                denom = 1.0 - self._count * p
                p = p / denom if denom > 0 else 1.0
            if self.rng.random() < p:
                self._count = 0
                return True
            self._count += 1
        else:
            self._count = 0
        return False
