"""Unidirectional links: serialisation rate, propagation delay, loss, MTU.

A link owns an egress queue (DropTail by default).  Packets larger than the
MTU are IP-fragmented: the wire carries extra per-fragment headers and the
loss of *any* fragment loses the whole transport packet — the
"segmentation collapse" the paper's Figure 15 demonstrates for MSS > MTU.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs import bus as OB
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue

#: Per-IP-fragment header bytes (IPv4 header repeated on each fragment).
FRAG_HEADER = 20


class Link:
    """One-way pipe from ``src`` to ``dst`` node.

    Parameters
    ----------
    rate_bps:
        Serialisation rate in bits/second.
    delay:
        Propagation delay in seconds (one way).
    queue:
        Egress queue; defaults to a 100-packet DropTail.
    loss_rate:
        Independent per-packet random loss probability (physical link error,
        §2.2 "random loss on the physical link").
    mtu:
        Maximum transmission unit in bytes (on-wire size per fragment).
        ``None`` disables fragmentation.
    jitter:
        Zero-mean fractional randomisation of each packet's serialisation
        time (e.g. 0.1 => +-5%).  Deterministic simulators suffer DropTail
        phase effects that grossly distort two-flow RTT bias; NS-2 breaks
        them with randomised processing overhead and this serves the same
        purpose.  Jitter perturbs transmission (not propagation) so FIFO
        ordering is preserved exactly.

    The far end's ``receive`` is bound once, here, and every delivery
    the link does not resolve itself calls that one bound method: nothing
    rebinds ``Node.receive`` once links exist.  :meth:`Network.finalize
    <repro.sim.topology.Network.finalize>` gives a link into a router
    that router's next hops (``next_hop``): a packet passing through is
    handed straight to the next link's ``send`` at its arrival time.  It
    gives a link into a host that host's port slots (``ports``, see
    :class:`~repro.sim.node.Host`): a datagram for a port ever bound
    goes straight to the port's slot, which calls what is bound there
    when it arrives.  Only a packet neither table names — one addressed
    to a router, an unroutable one, one passing through a host, one for
    a port never bound — reaches the far end's ``receive``.
    """

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        rate_bps: float,
        delay: float,
        queue: Optional[DropTailQueue] = None,
        loss_rate: float = 0.0,
        mtu: Optional[int] = None,
        name: str = "",
        jitter: float = 0.0,
    ):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("link delay cannot be negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue = queue if queue is not None else DropTailQueue(100)
        self.loss_rate = loss_rate
        self.mtu = mtu
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.jitter = jitter
        self.name = name or f"{src.id}->{dst.id}"
        # Lazy transmitter state: the wire is occupied until ``_busy_until``
        # (virtual time); a single pending drain event services the queue.
        self._busy_until = 0.0
        self._drain_pending = False
        # Packets in flight, in arrival order (Simulator.post_fifo).
        self._pipe = sim.fifo_stream()
        self._arrive = dst.receive
        self._far = dst.id
        #: Destination node id -> the next link's ``send`` (see above).
        self.next_hop: Dict[int, Callable[[Packet], bool]] = {}
        #: The far host's port -> delivery slot (see above).
        self.ports: Dict[int, Callable[[Packet], None]] = {}
        # stats
        self.bytes_sent = 0
        self.pkts_sent = 0
        self.pkts_lost = 0
        # observability: the bus is the only trace path.  Drops and queue
        # high-water marks go out while it is enabled, every enqueue and
        # dequeue while a subscriber asked for the detail tier; dormant,
        # each guard is one attribute load.
        self.bus = sim.bus
        self._q_highwater = 0

    # -- helpers --------------------------------------------------------
    def wire_size(self, pkt: Packet) -> int:
        """On-wire bytes including fragmentation overhead."""
        if self.mtu is None or pkt.size <= self.mtu:
            return pkt.size
        nfrag = -(-pkt.size // self.mtu)  # ceil
        return pkt.size + (nfrag - 1) * FRAG_HEADER

    def fragments(self, pkt: Packet) -> int:
        if self.mtu is None or pkt.size <= self.mtu:
            return 1
        return -(-pkt.size // self.mtu)

    def tx_time(self, pkt: Packet) -> float:
        return self.wire_size(pkt) * 8.0 / self.rate_bps

    # -- data path ------------------------------------------------------
    #
    # The transmitter is *lazy*: instead of an end-of-serialisation event
    # per packet (busy flag set/cleared by a ``_tx_done`` callback), the
    # wire's occupancy is a timestamp.  A packet arriving at an idle link
    # costs exactly ONE simulator event (its delivery at the far end);
    # only packets that actually queue pay for a drain event.  At sweep
    # scale this halves the event count on every uncongested hop.
    #
    # Deliveries go through the link's own FIFO stream (``_pipe``): the
    # wire serialises one packet at a time and jitter perturbs
    # transmission, not propagation, so arrivals are in posting order and
    # only the next one has to sit in the event heap.  Should an arrival
    # ever not be strictly later than the one before it (``delay`` lowered
    # mid-run), the engine posts it the ordinary way.
    def send(self, pkt: Packet) -> bool:
        """Hand a packet to this link's egress; False if the queue drops it.

        Admission is :meth:`DropTailQueue.push
        <repro.sim.queues.DropTailQueue.push>`'s rule and bookkeeping,
        written out on the queue's fields: the queue's early-drop test
        (RED's), then its capacity bounds.
        """
        sim = self.sim
        queue = self.queue
        # ``queue.bytes`` is zero exactly when the queue is empty (packet
        # sizes are positive) and, unlike its truth value, a plain load.
        if sim.now >= self._busy_until and not queue.bytes:
            # Idle wire: serialisation starts immediately.
            if self.bus.detail:
                self.bus.emit(
                    OB.LINK_ENQ,
                    sim.now,
                    self.name,
                    uid=pkt.uid,
                    flow=pkt.flow,
                    seq=getattr(pkt.payload, "seq", None),
                    qlen=0,
                )
            self._transmit(pkt)
            return True
        bus = self.bus
        packets = queue.packets
        qlen = len(packets)
        size = pkt.size
        early_drop = queue.early_drop
        if (
            (early_drop is not None and early_drop(qlen))
            or qlen >= queue.capacity_pkts
            or (
                queue.capacity_bytes is not None
                and queue.bytes + size > queue.capacity_bytes
            )
        ):
            queue.drops += 1
            if bus.enabled:
                bus.emit(
                    OB.LINK_DROP,
                    sim.now,
                    self.name,
                    reason="queue",
                    size=size,
                    flow=pkt.flow,
                    qlen=qlen,
                    uid=pkt.uid,
                    seq=getattr(pkt.payload, "seq", None),
                )
            return False
        packets.append(pkt)
        queue.bytes += size
        queue.enqueued += 1
        qlen += 1
        if qlen > queue.peak_pkts:
            queue.peak_pkts = qlen
        if queue.bytes > queue.peak_bytes:
            queue.peak_bytes = queue.bytes
        if bus.enabled:
            if qlen > self._q_highwater:
                self._q_highwater = qlen
                bus.emit(
                    OB.QUEUE_HIGHWATER,
                    sim.now,
                    self.name,
                    pkts=qlen,
                    bytes=queue.bytes,
                )
            if bus.detail:
                bus.emit(
                    OB.LINK_ENQ,
                    sim.now,
                    self.name,
                    uid=pkt.uid,
                    flow=pkt.flow,
                    seq=getattr(pkt.payload, "seq", None),
                    qlen=qlen,
                )
        if not self._drain_pending:
            self._drain_pending = True
            sim.post_at(self._busy_until, self._drain)
        return True

    def _transmit(self, pkt: Packet) -> None:
        """Start serialising ``pkt`` now (the caller guarantees an idle wire).

        Hot path: wire_size/tx_time are inlined (one call per packet per
        link adds up to minutes over a sweep).  The random-loss draw
        happens at serialisation start so traced and untraced runs
        consume the RNG stream identically.
        """
        sim = self.sim
        now = sim.now
        size = pkt.size
        mtu = self.mtu
        if mtu is None or size <= mtu:
            nfrag = 1
            wire = size
        else:
            nfrag = -(-size // mtu)
            wire = size + (nfrag - 1) * FRAG_HEADER
        tx = wire * 8.0 / self.rate_bps
        if self.jitter:
            tx *= 1.0 + self.jitter * (sim.rng.random() - 0.5)
        self._busy_until = now + tx
        self.bytes_sent += wire
        self.pkts_sent += 1
        bus = self.bus
        if bus.detail:
            bus.emit(
                OB.LINK_DEQ,
                now,
                self.name,
                uid=pkt.uid,
                flow=pkt.flow,
                seq=getattr(pkt.payload, "seq", None),
            )
        # Random (non-congestion) loss; any lost fragment loses the packet.
        if self.loss_rate > 0.0 and sim.rng.random() >= (
            (1.0 - self.loss_rate) ** nfrag
        ):
            self.pkts_lost += 1
            if bus.enabled:
                bus.emit(
                    OB.LINK_DROP,
                    now,
                    self.name,
                    reason="loss",
                    size=size,
                    flow=pkt.flow,
                    uid=pkt.uid,
                    seq=getattr(pkt.payload, "seq", None),
                )
        else:
            pkt.hops += 1
            dst = pkt.dst
            hop = self.next_hop.get(dst[0])
            if hop is None:
                hop = (
                    self.ports.get(dst[1], self._arrive)
                    if dst[0] == self._far
                    else self._arrive
                )
            sim.post_fifo(self._pipe, tx + self.delay, hop, pkt)

    def _drain(self) -> None:
        """Serialise the next queued packet (fires at ``_busy_until``);
        :meth:`DropTailQueue.pop <repro.sim.queues.DropTailQueue.pop>`
        written out, as :meth:`send` writes out ``push``."""
        self._drain_pending = False
        queue = self.queue
        packets = queue.packets
        if not packets:
            return
        pkt = packets.popleft()
        queue.bytes -= pkt.size
        self._transmit(pkt)
        if queue.bytes:
            self._drain_pending = True
            self.sim.post_at(self._busy_until, self._drain)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.rate_bps/1e6:.0f}Mb/s {self.delay*1e3:.2f}ms>"
