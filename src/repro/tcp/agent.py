"""TCP sender/receiver agents on the simulated network.

Packet-sequence TCP in the NS-2 style: segments are numbered by packet,
every segment is MSS bytes on the wire except a final partial one.  The
sender implements slow start, congestion avoidance via a pluggable
response function, RFC 6675-flavoured SACK loss recovery and an RFC 6298
RTO with exponential backoff and Karn's rule.

Sequence numbers here are plain unbounded Python integers compared with
raw ``<``/``>``/``-`` — by design.  Unlike UDT's 31-bit wrapping space
(``repro.udt.seqno``), NS-2-style TCP never wraps, so ordinary integer
arithmetic is exact and the ``seqno-taint`` lint rule deliberately
excludes ``repro/tcp/`` from its scope (see docs/ANALYSIS.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from math import inf
from typing import Callable, List, Optional, Tuple

from repro.ranges import RangeList
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.sim.topology import Network
from repro.tcp.options import TCP_IP_HEADER, TcpConfig
from repro.tcp.responses import Response
from repro.tcp.scoreboard import Scoreboard

#: ACK segment bytes: TCP/IP headers + 8 per SACK block.
ACK_BASE_SIZE = TCP_IP_HEADER


class TcpData:
    __slots__ = ("seq", "size", "fin")
    type_name = "tcp-data"

    def __init__(self, seq: int, size: int, fin: bool = False):
        self.seq = seq
        self.size = size
        self.fin = fin


class TcpAck:
    __slots__ = ("cum", "sack", "rwnd")
    type_name = "tcp-ack"

    def __init__(self, cum: int, sack: Tuple[Tuple[int, int], ...], rwnd: int):
        self.cum = cum
        self.sack = sack
        self.rwnd = rwnd


class _Port:
    """Minimal host port binding for TCP messages (sizes are explicit)."""

    def __init__(self, host: Host, port: Optional[int] = None):
        self.host = host
        self.sim = host.sim
        self.port = port if port is not None else host.next_free_port()
        self.address = (host.id, self.port)
        host.bind(self.port, self._on_packet)
        self.handler: Optional[Callable] = None
        #: Stamped on every packet sent, so link telemetry names the flow.
        self.flow: Optional[object] = None

    def send(self, msg, wire_size: int, dst) -> None:
        pkt = Packet(
            wire_size, self.address, dst, msg, self.flow, next(self.sim.packet_uids)
        )
        host = self.host
        # Routes never name the node itself, so a hit is a remote
        # destination and Node.send would only repeat this lookup.
        link = host.routes.get(dst[0])
        if link is not None:
            link.send(pkt)
        else:
            host.send(pkt)  # loopback delivery, unroutable accounting

    def _on_packet(self, pkt: Packet) -> None:
        if self.handler is not None:
            self.handler(pkt.payload)

    def close(self) -> None:
        self.host.unbind(self.port)


@dataclass
class TcpStats:
    segs_sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fast_recoveries: int = 0
    acks_received: int = 0


class TcpSender:
    def __init__(
        self,
        host: Host,
        dst_addr,
        config: Optional[TcpConfig] = None,
        response: Optional[Response] = None,
        total_bytes: Optional[int] = None,
        meter=None,
    ):
        self.config = config if config is not None else TcpConfig()
        self.response = response if response is not None else Response()
        self.port = _Port(host)
        self.port.handler = self._on_ack
        self.sim = host.sim
        self.dst = dst_addr
        self.meter = meter
        self.stats = TcpStats()

        payload = self._payload = self.config.payload_size
        if total_bytes is None:
            self.total_pkts: Optional[int] = None
            self.last_size = payload
        else:
            self.total_pkts = max(1, -(-total_bytes // payload))
            self.last_size = total_bytes - (self.total_pkts - 1) * payload
        self.done = False
        self.finish_time: Optional[float] = None
        # App-limited mode: push_app_data() gates how much may be sent.
        self.app_limited = False
        self._offered_bytes = 0

        # sequence state (monotone ints, packets)
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = float(self.config.init_cwnd)
        self.ssthresh = float(self.config.init_ssthresh)
        self.rwnd = float(self.config.rwnd_pkts)
        self.dupacks = 0
        self.in_recovery = False
        # NewReno "recover" guard: no new cwnd reduction until the
        # cumulative ACK passes the point where the last one happened.
        self.recover_point = -1
        self._dupthresh = self.config.dupthresh
        self.board = Scoreboard(self._dupthresh)

        # RTT / RTO (RFC 6298)
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = 1.0
        self._send_times: dict[int, float] = {}
        # (seq, snd_nxt at retransmit), oldest first; snd_nxt never
        # decreases, so the marks are sorted.
        self._retx_fack: deque[Tuple[int, int]] = deque()
        # Retransmission timer: a deadline (None = disarmed) and at most
        # one live heap entry, due at ``_rto_tick_at`` (inf = none posted).
        # Restarting on every ACK just moves the deadline; see _rto_tick.
        self._rto_deadline: Optional[float] = None
        self._rto_tick_at = inf
        self._rto_gen = 0

        # Vegas-style per-RTT bookkeeping
        self._rtt_mark = 0

        self._started = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._try_send()

    def close(self) -> None:
        self._rto_deadline = None
        self.port.close()

    # -- sending ------------------------------------------------------------
    def push_app_data(self, nbytes: int) -> None:
        """App-limited mode: make ``nbytes`` more available for sending."""
        self.app_limited = True
        self._offered_bytes += nbytes
        self._try_send()

    def _try_send(self) -> None:
        if self.done:
            return
        now = self.sim.now
        rwnd = self.rwnd
        cwnd = self.cwnd
        window = rwnd if rwnd < cwnd else cwnd  # min(cwnd, rwnd)
        board = self.board
        stats = self.stats
        snd_una = self.snd_una
        snd_nxt = self.snd_nxt
        payload = self._payload
        total = self.total_pkts
        fin_seq = -1 if total is None else total - 1
        while True:
            # RFC 6675 pipe, as Scoreboard.pipe computes it; retransmitting
            # moves its second count, so it is read again every round.
            pipe = snd_nxt - snd_una - board._sacked - board._lost_not_retx
            if (pipe if pipe > 0 else 0) >= window:
                break
            # An empty candidate heap means there is nothing to retransmit.
            seq = (
                board.next_lost_to_retransmit(snd_una) if board._retx_heap else None
            )
            if seq is not None:
                board.on_retransmit(seq)
                self._retx_fack.append((seq, snd_nxt))
                self._send_times.pop(seq, None)  # Karn: no sample from retx
                stats.retransmits += 1
            else:
                if self.app_limited:
                    if snd_nxt >= self._offered_bytes // payload:
                        break
                elif total is not None and snd_nxt >= total:
                    break
                # New data additionally honours the classic flight bound so
                # a wedged cumulative ACK can never balloon the outstanding
                # data.
                if snd_nxt - snd_una >= rwnd:
                    break
                seq = snd_nxt
                self.snd_nxt = snd_nxt = seq + 1
                self._send_times[seq] = now
            stats.segs_sent += 1
            if seq == fin_seq:
                size, fin = self.last_size, True
            else:
                size, fin = payload, False
            if self.meter is not None:
                self.meter.on_data_sent(size)
            self.port.send(TcpData(seq, size, fin), TCP_IP_HEADER + size, self.dst)
        if self._rto_deadline is None and snd_nxt > snd_una:
            self._arm_rto()

    # -- receiving ACKs ---------------------------------------------------
    def _on_ack(self, ack: TcpAck) -> None:
        if self.done:
            return
        self.stats.acks_received += 1
        if self.meter is not None:
            self.meter.on_ctrl("ack")
        now = self.sim.now
        self.rwnd = float(ack.rwnd)
        board = self.board
        cum = ack.cum
        newly_acked = cum - self.snd_una
        self.response.on_ack_arrival(newly_acked if newly_acked > 0 else 0, now)

        if newly_acked > 0:
            # RTT sample from the newest cumulatively-acked segment that
            # was never retransmitted.
            send_times = self._send_times
            sample_t = send_times.pop(cum - 1, None)
            if newly_acked > 1:
                for s in range(cum - 2, self.snd_una - 1, -1):
                    t = send_times.pop(s, None)
                    if sample_t is None:
                        sample_t = t
            if sample_t is not None:
                self._rtt_update(now - sample_t)
            self.snd_una = cum
            board.ack_upto(cum)
            self.dupacks = 0
            # _arm_rto(restart=True), once per ACK: move the deadline.
            deadline = self._rto_deadline = now + self.rto
            if deadline < self._rto_tick_at:
                self._post_rto_tick(deadline)
        else:
            self.dupacks += 1

        for a, b in ack.sack:
            board.add_sack(a, b)
        # With nothing SACKed there is no highest SACK: no loss to infer
        # from it and no retransmission it can have overtaken.
        if board._sacked:
            board.update_lost(self.snd_una)

            # Detect lost retransmissions (FACK on retransmit order): if the
            # highest SACK has moved dupthresh past where a retransmission
            # was sent and it is still unacked, the retransmission died too.
            fack = self._retx_fack
            if fack:
                reach = board.highest_sacked() - self._dupthresh
                while fack and fack[0][1] <= reach:
                    s, _ = fack.popleft()
                    if s >= self.snd_una and s in board.retransmitted:
                        board.re_mark_lost(s)

        if self.in_recovery:
            if self.snd_una >= self.recover_point:
                self.in_recovery = False
                ssthresh = self.ssthresh
                self.cwnd = 2.0 if 2.0 > ssthresh else ssthresh
        elif (
            board._lost_not_retx > 0 or self.dupacks >= self._dupthresh
        ) and self.snd_una > self.recover_point:
            self._enter_recovery()

        if newly_acked > 0 and not self.in_recovery:
            cwnd = self.cwnd
            ssthresh = self.ssthresh
            if cwnd < ssthresh:
                cwnd += newly_acked
                self.cwnd = ssthresh if ssthresh < cwnd else cwnd
            else:
                for _ in range(newly_acked):
                    self.cwnd += self.response.ack_increment(self.cwnd)
            if self.snd_una >= self._rtt_mark:
                self.response.per_rtt_adjust(self)
                self._rtt_mark = self.snd_nxt

        if (
            self.total_pkts is not None
            and self.snd_una >= self.total_pkts
            and not self.done
        ):
            self.done = True
            self.finish_time = now
            self._rto_deadline = None
            return
        self._try_send()

    def _enter_recovery(self) -> None:
        self.stats.fast_recoveries += 1
        self.in_recovery = True
        self.recover_point = self.snd_nxt
        override = self.response.ssthresh_after_loss(self)
        if override is not None:
            self.ssthresh = max(override, 2.0)
        else:
            self.ssthresh = max(self.cwnd * self.response.backoff(self.cwnd), 2.0)
        self.cwnd = self.ssthresh
        # Without SACK information (pure dupacks) presume the first
        # unacked segment is the loss.
        if not self.board.lost:
            self.board.mark_lost(self.snd_una)

    # -- RTT / RTO -------------------------------------------------------
    def _rtt_update(self, sample: float) -> None:
        self.response.on_rtt_sample(sample)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        # srtt + max(4 rttvar, 0.01), clamped to [min_rto, max_rto] as
        # min(max(rto, min_rto), max_rto): comparisons, not builtin calls
        var = 4.0 * self.rttvar
        rto = self.srtt + (0.01 if 0.01 > var else var)
        config = self.config
        rto = config.min_rto if config.min_rto > rto else rto
        self.rto = config.max_rto if config.max_rto < rto else rto

    def _arm_rto(self, restart: bool = False) -> None:
        if self._rto_deadline is not None and not restart:
            return
        deadline = self._rto_deadline = self.sim.now + self.rto
        # Usually the deadline only moves later and the outstanding tick
        # will chase it; a shrunken rto can pull it in front of the tick.
        if deadline < self._rto_tick_at:
            self._post_rto_tick(deadline)

    def _post_rto_tick(self, when: float) -> None:
        self._rto_gen += 1
        self._rto_tick_at = when
        self.sim.post_at(when, self._rto_tick, self._rto_gen)

    def _rto_tick(self, gen: int) -> None:
        """The timer's heap entry fired: chase the deadline or time out."""
        if gen != self._rto_gen:
            return  # superseded by an earlier tick
        deadline = self._rto_deadline
        if deadline is None:  # done or closed: go inert
            self._rto_tick_at = inf
        elif deadline > self.sim.now:  # restarted since this tick was posted
            self._post_rto_tick(deadline)
        else:
            self._rto_tick_at = inf
            self._on_rto()

    def _on_rto(self) -> None:
        self._rto_deadline = None
        if self.done or self.snd_nxt == self.snd_una:
            return
        self.stats.timeouts += 1
        self.response.on_timeout()
        flight = self.snd_nxt - self.snd_una
        self.ssthresh = max(flight / 2.0, 2.0)
        self.cwnd = 1.0
        self.in_recovery = False
        self.recover_point = self.snd_nxt  # no fast recovery for this window
        self.dupacks = 0
        # Conservative (NS-2-like): drop SACK state, presume all lost.
        self.board.clear()
        self.board.mark_lost_range(self.snd_una, self.snd_nxt - 1)
        self._send_times.clear()
        self._retx_fack.clear()
        self.rto = min(self.rto * 2.0, self.config.max_rto)
        self._try_send()
        self._arm_rto(restart=True)


class TcpSink:
    def __init__(
        self,
        host: Host,
        config: Optional[TcpConfig] = None,
        deliver: Optional[Callable[[int], None]] = None,
        meter=None,
    ):
        self.config = config if config is not None else TcpConfig()
        self.port = _Port(host)
        self.port.handler = self._on_data
        self.sim = host.sim
        self.meter = meter
        self._deliver = deliver
        self._rwnd_open = max(self.config.rwnd_pkts, 1)
        self.next_expected = 0
        # Out-of-order segments as sorted disjoint ranges + per-seq sizes.
        self._ranges = RangeList()
        self._sizes: dict[int, int] = {}
        self._last_arrival: Optional[int] = None
        self.delivered_bytes = 0
        self.delivered_packets = 0
        self.src_addr = None
        self.fin_seen = False
        #: optional tap fired for every accepted (non-duplicate) segment —
        #: NS-2-style sink arrival sampling, symmetric with UdtCore's.
        self.arrival_cb = None

    @property
    def address(self):
        return self.port.address

    def _sack_blocks(self) -> Tuple[Tuple[int, int], ...]:
        """Most-recent block first (RFC 2018), then the highest others —
        so the sender learns the top of the SACK space fast."""
        ranges = self._ranges
        last = self._last_arrival
        recent = ranges.find(last) if last is not None else None
        out: List[Tuple[int, int]] = [] if recent is None else [recent]
        cap = self.config.max_sack_blocks
        for blk in ranges.top(cap):
            if len(out) >= cap:
                break
            if blk != recent:
                out.append(blk)
        return tuple(out)

    def _on_data(self, seg: TcpData) -> None:
        if self.meter is not None:
            self.meter.on_data_received(seg.size)
        if seg.fin:
            self.fin_seen = True
        seq = seg.seq
        ranges = self._ranges
        if seq == self.next_expected:
            size = seg.size
            if self.arrival_cb is not None:
                self.arrival_cb(size)
            self.delivered_bytes += size
            self.delivered_packets += 1
            if self._deliver is not None:
                self._deliver(size)
            self.next_expected = seq + 1
            if ranges.count:
                self._drain()
            self._last_arrival = None
        elif seq > self.next_expected and not ranges.contains(seq):
            if self.arrival_cb is not None:
                self.arrival_cb(seg.size)
            ranges.insert(seq, seq)
            self._sizes[seq] = seg.size
            self._last_arrival = seq
        held = ranges.count
        if held:
            sack = self._sack_blocks()
            rwnd = max(self.config.rwnd_pkts - held, 1)
            wire_size = ACK_BASE_SIZE + 8 * len(sack)
        else:  # nothing out of order: no SACK option, the whole window
            sack, rwnd, wire_size = (), self._rwnd_open, ACK_BASE_SIZE
        # Reply to the sender's data port.
        if self.src_addr is not None:
            self.port.send(
                TcpAck(self.next_expected, sack, rwnd), wire_size, self.src_addr
            )

    def _drain(self) -> None:
        first = self._ranges.first()
        while first is not None and first == self.next_expected:
            a, b = next(iter(self._ranges.ranges()))
            self._ranges.remove_upto(b)
            for s in range(a, b + 1):
                self._deliver_one(self._sizes.pop(s))
            self.next_expected = b + 1
            first = self._ranges.first()

    def _deliver_one(self, size: int) -> None:
        self.delivered_bytes += size
        self.delivered_packets += 1
        if self._deliver is not None:
            self._deliver(size)

    def close(self) -> None:
        self.port.close()


class TcpFlow:
    """A unidirectional TCP transfer, mirroring :class:`UdtFlow`."""

    def __init__(
        self,
        net: Network,
        src: Host,
        dst: Host,
        config: Optional[TcpConfig] = None,
        response: Optional[Response] = None,
        nbytes: Optional[int] = None,
        start: float = 0.0,
        flow_id: Optional[object] = None,
        meter_snd=None,
        meter_rcv=None,
    ):
        self.net = net
        self.config = config if config is not None else TcpConfig()
        if flow_id is None:
            flow_id = net.next_flow_id("tcp")
        self.flow_id = flow_id
        self._taps: List[Callable[[int], None]] = []
        # The sink books deliveries with the monitor itself; _on_deliver
        # steps in between once a tap is registered.
        self.sink = TcpSink(
            dst, self.config, deliver=partial(net.monitor.on_deliver, flow_id),
            meter=meter_rcv,
        )
        self.sender = TcpSender(
            src, self.sink.address, self.config, response, total_bytes=nbytes,
            meter=meter_snd,
        )
        self.sink.src_addr = self.sender.port.address
        self.sender.port.flow = self.sink.port.flow = flow_id
        net.sim.schedule_at(max(start, net.sim.now), self.sender.start)
        # TCP has no fluid model: an active TCP flow vetoes the hybrid
        # tier's analytic spans on this network.
        fluid = net.fluid
        if fluid is not None:
            fluid.register_blocker(lambda: not self.done)

    def _on_deliver(self, size: int) -> None:
        self.net.monitor.on_deliver(self.flow_id, size)
        for tap in self._taps:
            tap(size)

    def offer(self, nbytes: int) -> int:
        """Hand application bytes to the sender; it takes all of them."""
        self.sender.push_app_data(nbytes)
        return nbytes

    def add_delivery_tap(self, cb: Callable[[int], None]) -> None:
        """Call ``cb(size)`` after each in-order delivery's own bookkeeping."""
        self._taps.append(cb)
        self.sink._deliver = self._on_deliver

    # -- experiment helpers -------------------------------------------------
    @property
    def done(self) -> bool:
        return self.sender.done

    @property
    def finish_time(self) -> Optional[float]:
        return self.sender.finish_time

    @property
    def delivered_bytes(self) -> int:
        return self.sink.delivered_bytes

    def throughput_bps(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        return self.net.monitor.throughput_bps(self.flow_id, t0, t1)

    def series(self, interval: float, t0: float = 0.0, t1: Optional[float] = None):
        return self.net.monitor.series(self.flow_id, interval, t0, t1)

    def record_arrivals(self) -> None:
        """Book every segment the sink accepts, in or out of order, under
        :attr:`arrival_flow_id`.  Call it before the run."""
        self.sink.arrival_cb = partial(
            self.net.monitor.on_deliver, (self.flow_id, "arr")
        )

    @property
    def arrival_flow_id(self):
        """Monitor key of the sink-arrival (vs in-order goodput) series;
        raises unless :meth:`record_arrivals` was called."""
        if self.sink.arrival_cb is None:
            raise RuntimeError(
                f"flow {self.flow_id!r} does not record arrivals: "
                "call record_arrivals() before the run"
            )
        return (self.flow_id, "arr")

    def close(self) -> None:
        self.sender.close()
        self.sink.close()


def start_tcp_flow(
    net: Network,
    src: Host,
    dst: Host,
    start: float = 0.0,
    nbytes: Optional[int] = None,
    config: Optional[TcpConfig] = None,
    response: Optional[Response] = None,
    flow_id: Optional[object] = None,
) -> TcpFlow:
    return TcpFlow(
        net,
        src,
        dst,
        config=config,
        response=response,
        nbytes=nbytes,
        start=start,
        flow_id=flow_id,
    )
