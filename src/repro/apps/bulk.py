"""Bulk / cross-traffic generators.

:class:`UdpBlast` is the uncontrolled bursting UDP source the paper uses
to create heavy congestion for Figure 8 ("the data is obtained by
injecting a bursting UDP flow into the network"): it alternates ON bursts
at a configurable rate with OFF silences, with no congestion control at
all.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.node import Host
from repro.sim.packet import Address
from repro.sim.topology import Network
from repro.sim.udp import UdpEndpoint


class UdpBlast:
    """ON/OFF constant-rate UDP blaster (no reliability, no control)."""

    def __init__(
        self,
        net: Network,
        src: Host,
        dst_addr: Address,
        rate_bps: float,
        pkt_size: int = 1500,
        on_time: float = 0.1,
        off_time: float = 0.0,
        start: float = 0.0,
        stop: Optional[float] = None,
    ):
        if rate_bps <= 0 or pkt_size <= 28:
            raise ValueError("need a positive rate and a >28B packet")
        self.net = net
        self.ep = UdpEndpoint(src)
        self.dst = dst_addr
        self.pkt_size = pkt_size
        self.payload = pkt_size - 28
        self.interval = pkt_size * 8.0 / rate_bps
        self.on_time = on_time
        self.off_time = off_time
        self.stop_at = stop
        self.pkts_sent = 0
        self._burst_end = 0.0
        #: Absolute time of the next burst start; None while a burst is ON.
        #: The fluid tier bounds its analytic spans by this (a burst is a
        #: CC-relevant boundary the packet engine must be awake for).
        self._next_on: Optional[float] = max(start, net.sim.now)
        #: Exact count of this blaster's outstanding engine events — the
        #: fluid tier's quiet check needs to distinguish "heap holds only
        #: known source wake-ups" from "a packet is still in flight".
        self._posts = 1
        net.sim.schedule_at(self._next_on, self._fire_start)
        fluid = net.fluid
        if fluid is not None:
            fluid.register_source(self)

    # Engine events enter through the _fire_* wrappers so the pending
    # count stays exact; internal transitions call the bare methods.
    def _fire_start(self) -> None:
        self._posts -= 1
        self._start_burst()

    def _fire_tick(self) -> None:
        self._posts -= 1
        self._tick()

    def _start_burst(self) -> None:
        if self.stop_at is not None and self.net.sim.now >= self.stop_at:
            self._next_on = None
            return
        self._burst_end = self.net.sim.now + self.on_time
        self._next_on = None  # ON: the blaster is occupying the network
        self._tick()

    def _tick(self) -> None:
        now = self.net.sim.now
        if self.stop_at is not None and now >= self.stop_at:
            self._next_on = None
            return
        if now >= self._burst_end:
            if self.off_time > 0:
                self._next_on = now + self.off_time
                self._posts += 1
                self.net.sim.post(self.off_time, self._fire_start)
            else:
                self._start_burst()
            return
        self.ep.sendto(None, self.payload, self.dst)
        self.pkts_sent += 1
        # Fire-and-forget: a tick per packet, never cancelled.
        self._posts += 1
        self.net.sim.post(self.interval, self._fire_tick)

    # -- fluid-tier source protocol (repro.sim.fluid) -------------------
    def blocking(self) -> bool:
        """True while a burst is ON (packets entering the network)."""
        return self._next_on is None and not (
            self.stop_at is not None and self.net.sim.now >= self.stop_at
        )

    def next_boundary(self) -> Optional[float]:
        """Next ON/OFF transition the packet engine must be awake for."""
        return self._next_on

    def pending_events(self) -> int:
        return self._posts
