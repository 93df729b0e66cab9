"""Run UDT endpoints over the simulated network.

:class:`UdtFlow` wires two :class:`~repro.udt.core.UdtCore` endpoints to
UDP endpoints on two simulated hosts, handles connection setup, and tracks
goodput through the network's :class:`~repro.sim.monitor.FlowMonitor`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional

from repro.obs import bus as OB
from repro.sim.engine import Event, Simulator
from repro.sim.node import Host
from repro.sim.topology import Network
from repro.sim.udp import UdpEndpoint
from repro.udt.cc import CongestionControl, UdtNativeCC
from repro.udt.core import UdtCore
from repro.udt.params import UDT_HEADER, UdtConfig


class SimScheduler:
    """Adapts the discrete-event engine to the core's Scheduler protocol.

    ``post_at(time, fn)`` is the engine's own fire-and-forget
    :meth:`~repro.sim.engine.Simulator.post_at` (no Event allocation, not
    cancellable, raises on a time in the past): the core's pacing tick
    re-arms through it once per data packet and never schedules backwards.
    """

    __slots__ = ("sim", "post_at")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.post_at = sim.post_at

    def now(self) -> float:
        return self.sim.now

    def call_at(self, time: float, fn: Callable[[], None]) -> Event:
        return self.sim.schedule_at(max(time, self.sim.now), fn)

    def cancel(self, handle: Event) -> None:
        handle.cancel()


class _UdtFluidAdapter:
    """Glue between one :class:`UdtFlow` and the network's fluid tier.

    Implements the adapter protocol documented on
    :class:`repro.sim.fluid.FluidController`: eligibility/quiescence
    checks over both endpoint cores, freeze/resume delegation, the
    analytic rate from the sender's congestion controller, and byte
    credits booked to the flow monitor under the goodput key and, for a
    flow that records arrivals, the sink-arrival key too (delivery and
    arrival coincide in a loss-free fluid span).
    """

    __slots__ = ("flow", "syn", "wire_bytes", "payload_bytes", "_links", "_accum", "_credited")

    def __init__(self, flow: "UdtFlow", src: Host, dst: Host):
        self.flow = flow
        self.syn = flow.config.syn
        self.payload_bytes = flow.config.payload_size
        self.wire_bytes = UDT_HEADER + flow.config.payload_size
        self._links = self._walk_path(src, dst)
        self._accum = 0.0  # fractional bytes owed to the monitor
        self._credited = 0

    @staticmethod
    def _walk_path(src: Host, dst: Host) -> list:
        links = []
        node = src
        while node.id != dst.id:
            link = node.routes[dst.id]
            links.append(link)
            node = link.dst
        return links

    def eligible(self) -> bool:
        f = self.flow
        return (
            f.nbytes is None
            and not f.app_driven
            and not f.done
            and f.sender.connected
            and f.receiver.connected
            and f.sender.cc.fluid_eligible()
        )

    def quiesced(self) -> bool:
        return self.flow.sender.fluid_quiesced() and self.flow.receiver.fluid_quiesced()

    def hold(self, hold: bool) -> None:
        self.flow.sender.fluid_hold(hold)

    def freeze(self):
        return (self.flow.sender.fluid_freeze(), self.flow.receiver.fluid_freeze())

    def resume(self, state) -> None:
        snd_deadline, rcv_deadline = state
        rate = self.rate_pps()
        self.flow.sender.fluid_resume(rate, snd_deadline)
        self.flow.receiver.fluid_resume(rate, rcv_deadline)
        self.flow.sender.cc.fluid_resume(rate)

    def rate_pps(self) -> float:
        return 1.0 / self.flow.sender.cc.period

    def tick(self) -> float:
        return self.flow.sender.cc.fluid_tick()

    def links(self) -> list:
        return self._links

    def drain_delay(self) -> float:
        # A full control round trip (ACK out, ACK2 back) plus a few SYN
        # intervals for the last duplicate-suppressed ACK to be skipped.
        return 2.0 * sum(l.delay for l in self._links) + 4.0 * self.syn

    def credit(self, t0: float, t1: float, nbytes: float) -> None:
        """Book ``nbytes`` (fractional) of analytic delivery over [t0, t1).

        A running float accumulator against an integer credited total
        keeps the span-wide sum exact to the floor of the analytic
        total — byte conservation for the equivalence tests.
        """
        self._accum += nbytes
        total = int(self._accum)
        add = total - self._credited
        if add <= 0:
            return
        self._credited = total
        flow = self.flow
        monitor = flow.net.monitor
        monitor.credit_span(flow.flow_id, t0, t1, add)
        if flow.receiver.arrival_cb is not None:
            monitor.credit_span(flow.arrival_flow_id, t0, t1, add)


class UdtFlow:
    """A unidirectional UDT transfer from ``src`` to ``dst``.

    Parameters
    ----------
    nbytes:
        Application bytes to transfer; ``None`` means an unlimited bulk
        source (the paper's memory-memory workloads).
    app_driven:
        When True the flow performs no data pumping of its own — an
        application object (e.g. :class:`repro.apps.fileio.DiskTransfer`)
        feeds ``sender.send`` explicitly.
    start:
        Virtual time at which the connection handshake begins.
    """

    def __init__(
        self,
        net: Network,
        src: Host,
        dst: Host,
        config: Optional[UdtConfig] = None,
        cc_factory: Callable[[UdtConfig], CongestionControl] = UdtNativeCC,
        nbytes: Optional[int] = None,
        start: float = 0.0,
        flow_id: Optional[object] = None,
        meter_snd: Optional[Any] = None,
        meter_rcv: Optional[Any] = None,
        app_driven: bool = False,
    ):
        self.net = net
        self.bus = net.sim.bus
        self.config = config if config is not None else UdtConfig()
        if flow_id is None:
            flow_id = net.next_flow_id("udt")
        self.flow_id = flow_id
        self.nbytes = nbytes
        self.app_driven = app_driven
        self.start_time = start
        self.done = False
        self.finish_time: Optional[float] = None
        self._offered = 0  # bytes handed to the send buffer so far
        self._taps: List[Callable[[int], None]] = []

        sched = SimScheduler(net.sim)
        self._src_ep = UdpEndpoint(src)
        self._dst_ep = UdpEndpoint(dst)

        # Wire packets carry the flow id so link-level telemetry (drops,
        # queue events, ns-2 taps) is attributable to a connection.  Each
        # core transmits through its connected endpoint's own ``send``.
        self._src_ep.connect(self._dst_ep.address, self.flow_id)
        self._dst_ep.connect(self._src_ep.address, self.flow_id)

        self.sender = UdtCore(
            self.config,
            sched,
            self._src_ep.send,
            cc=cc_factory(self.config),
            name=f"{flow_id}-snd",
            meter=meter_snd,
            bus=self.bus,
        )
        # An unlimited flow books its deliveries with the monitor itself;
        # _on_deliver steps in between for a finite flow (completion) and
        # once a tap is registered.
        self.receiver = UdtCore(
            self.config,
            sched,
            self._dst_ep.send,
            deliver=(
                partial(net.monitor.on_deliver, flow_id)
                if nbytes is None
                else self._on_deliver
            ),
            name=f"{flow_id}-rcv",
            meter=meter_rcv,
            bus=self.bus,
        )
        self._src_ep.on_datagram(self.sender.on_datagram)
        self._dst_ep.on_datagram(self.receiver.on_datagram)

        fluid = net.fluid
        if fluid is not None:
            fluid.register_flow(_UdtFluidAdapter(self, src, dst))

        net.sim.schedule_at(max(start, net.sim.now), self._begin)

    def _begin(self) -> None:
        self.receiver.listen()
        self.sender.connect()
        if self.app_driven:
            return
        if self.nbytes is None:
            self.sender.send_forever()
        else:
            self._push_app_data()

    def _push_app_data(self) -> None:
        """Feed the finite transfer into the send buffer as space frees up."""
        assert self.nbytes is not None
        remaining = self.nbytes - self._offered
        if remaining > 0:
            self._offered += self.sender.send(remaining)
        if self._offered < self.nbytes and not self.done:
            # Poll again shortly; the buffer drains at the sending rate.
            self.net.sim.schedule(self.config.syn, self._push_app_data)

    def _on_deliver(self, size: int, data: Optional[bytes]) -> None:
        self.net.monitor.on_deliver(self.flow_id, size)
        if (
            self.nbytes is not None
            and not self.done
            and self.receiver.delivered_bytes >= self.nbytes
        ):
            self.done = True
            self.finish_time = self.net.sim.now
            if self.bus.enabled:
                self.bus.emit(
                    OB.FLOW_DONE,
                    self.finish_time,
                    str(self.flow_id),
                    bytes=self.receiver.delivered_bytes,
                    elapsed=self.finish_time - self.start_time,
                )
        for tap in self._taps:
            tap(size)

    def offer(self, nbytes: int) -> int:
        """Hand application bytes to the sender; returns how many it took."""
        return self.sender.send(nbytes)

    def add_delivery_tap(self, cb: Callable[[int], None]) -> None:
        """Call ``cb(size)`` after each in-order delivery's own bookkeeping."""
        self._taps.append(cb)
        self.receiver.rcv_buffer._deliver = self._on_deliver

    # -- experiment helpers ------------------------------------------------
    def throughput_bps(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        return self.net.monitor.throughput_bps(self.flow_id, t0, t1)

    def series(self, interval: float, t0: float = 0.0, t1: Optional[float] = None):
        return self.net.monitor.series(self.flow_id, interval, t0, t1)

    def record_arrivals(self) -> None:
        """Book every packet the sink accepts, in or out of order, under
        :attr:`arrival_flow_id` (NS-2-style arrival sampling).  Call it
        before the run; a flow that does not books nothing per arrival."""
        self.receiver.arrival_cb = partial(
            self.net.monitor.on_deliver, (self.flow_id, "arr")
        )

    @property
    def arrival_flow_id(self):
        """Monitor key of the sink-arrival (vs in-order goodput) series;
        raises unless :meth:`record_arrivals` was called."""
        if self.receiver.arrival_cb is None:
            raise RuntimeError(
                f"flow {self.flow_id!r} does not record arrivals: "
                "call record_arrivals() before the run"
            )
        return (self.flow_id, "arr")

    @property
    def delivered_bytes(self) -> int:
        return self.receiver.delivered_bytes

    def close(self) -> None:
        self.sender.close()
        self.receiver.close()
        self._src_ep.close()
        self._dst_ep.close()


def start_udt_flow(
    net: Network,
    src: Host,
    dst: Host,
    start: float = 0.0,
    nbytes: Optional[int] = None,
    config: Optional[UdtConfig] = None,
    cc_factory: Callable[[UdtConfig], CongestionControl] = UdtNativeCC,
    flow_id: Optional[object] = None,
) -> UdtFlow:
    """Convenience wrapper used throughout the experiments."""
    return UdtFlow(
        net,
        src,
        dst,
        config=config,
        cc_factory=cc_factory,
        nbytes=nbytes,
        start=start,
        flow_id=flow_id,
    )
