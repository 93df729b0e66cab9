"""Arrival-rate and link-capacity measurement (§3.2, §3.4).

Two 16-slot circular windows of inter-packet intervals feed median filters:

* **Packet arrival speed (AS)** — intervals between consecutive data-packet
  arrivals.  The paper is explicit that a plain mean does not work because
  sending may pause; the median filter discards outliers (intervals outside
  [median/8, median*8]) and averages the rest.  AS drives the flow window
  ``W = AS * (SYN + RTT)``.
* **Link capacity (RBPP)** — intervals inside receiver-based packet pairs
  (two packets sent back-to-back every 16th packet).  The pair spacing at
  the receiver reflects the bottleneck serialisation time, so
  ``capacity = 1 / median-filtered pair interval``.
"""

from __future__ import annotations

from typing import List, Optional


class IntervalWindow:
    """Fixed-size circular window of time intervals with a median filter."""

    __slots__ = ("size", "_buf", "_idx", "_count")

    def __init__(self, size: int = 16):
        if size < 2:
            raise ValueError("window size must be >= 2")
        self.size = size
        self._buf: List[float] = [0.0] * size
        self._idx = 0
        self._count = 0

    def push(self, interval: float) -> None:
        if interval < 0:
            raise ValueError("negative interval")
        self._buf[self._idx] = interval
        self._idx = (self._idx + 1) % self.size
        if self._count < self.size:
            self._count += 1

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.size

    def filtered_rate(self, require_majority: bool = True) -> float:
        """Events/second from median-filtered intervals, 0.0 if unknown.

        Intervals outside [median/8, median*8] are treated as sending
        pauses or measurement noise and excluded.  With
        ``require_majority`` (used for AS), at least half the window must
        survive the filter, per the reference implementation.
        """
        n = self._count
        if n < 2:
            return 0.0
        vals = sorted(self._buf[:n])
        median = vals[n // 2]
        if median <= 0.0:
            return 0.0
        lo, hi = median / 8.0, median * 8.0
        kept = [v for v in vals if lo < v < hi]
        if not kept:
            return 0.0
        if require_majority and len(kept) <= n // 2:
            return 0.0
        return len(kept) / sum(kept)


class ArrivalRecorder:
    """Feeds data-packet arrival times into an :class:`IntervalWindow`."""

    __slots__ = ("window", "_last")

    def __init__(self, size: int = 16):
        self.window = IntervalWindow(size)
        self._last: Optional[float] = None

    def on_arrival(self, now: float) -> None:
        last = self._last
        if last is not None:
            # IntervalWindow.push, folded in: this runs once per data packet.
            interval = now - last
            if interval < 0:
                raise ValueError("negative interval")
            w = self.window
            idx = w._idx
            w._buf[idx] = interval
            w._idx = (idx + 1) % w.size
            if w._count < w.size:
                w._count += 1
        self._last = now

    def skip(self) -> None:
        """Break the chain (e.g. second probe packet must not pollute AS)."""
        self._last = None

    def speed(self) -> float:
        """Packet arrival speed in packets/second (0 when unmeasurable)."""
        return self.window.filtered_rate(require_majority=True)


class ProbeRecorder:
    """Packet-pair capacity estimation (RBPP)."""

    __slots__ = ("window", "_first_time")

    def __init__(self, size: int = 16):
        self.window = IntervalWindow(size)
        self._first_time: Optional[float] = None

    def on_probe1(self, now: float) -> None:
        self._first_time = now

    def on_probe2(self, now: float) -> None:
        if self._first_time is not None:
            self.window.push(now - self._first_time)
            self._first_time = None

    def capacity(self) -> float:
        """Estimated link capacity in packets/second (0 when unmeasurable)."""
        return self.window.filtered_rate(require_majority=False)


class RttEstimator:
    """Smoothed RTT from ACK/ACK2 handshakes (EWMA 7/8, like the reference)."""

    __slots__ = ("rtt", "var", "_initialized")

    def __init__(self, initial: float = 0.1):
        self.rtt = initial
        self.var = initial / 2.0
        self._initialized = False

    def update(self, sample: float) -> None:
        if sample < 0:
            raise ValueError("negative RTT sample")
        if not self._initialized:
            self.rtt = sample
            self.var = sample / 2.0
            self._initialized = True
            return
        self.var = (3.0 * self.var + abs(sample - self.rtt)) / 4.0
        self.rtt = (7.0 * self.rtt + sample) / 8.0

    @property
    def rto(self) -> float:
        return self.rtt + 4.0 * self.var
