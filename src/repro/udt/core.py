"""The UDT endpoint: full-duplex sender + receiver state machines (§3, §4.8).

``UdtCore`` is sans-IO: it never touches sockets or the simulator
directly.  It is constructed with

* a **scheduler** (``now() / call_at(t, fn) / cancel(handle)``) — bound to
  the discrete-event engine in simulation or a timer thread in the
  loopback runtime, and
* a **transmit function** ``transmit(msg, wire_size)`` that puts one UDP
  datagram on the wire.

Incoming datagrams are fed through :meth:`on_datagram`.

The structure follows §4.8 of the paper: the *sender* half only paces data
packets out under rate control (period from the congestion controller)
and window control (min of the peer's flow window and the congestion
window), always servicing the loss list first; the *receiver* half detects
loss, fires the ACK/NAK/EXP timers, and computes the arrival-speed and
link-capacity estimates that are fed back in every ACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Protocol, Tuple

from repro.obs import bus as OB
from repro.udt import packets as P
from repro.udt.buffers import ReceiveBuffer, SendBuffer
from repro.udt.cc import CongestionControl, LossEvent, UdtNativeCC
from repro.udt.history import ArrivalRecorder, ProbeRecorder, RttEstimator
from repro.udt.losslist import ReceiverLossList, SenderLossList
from repro.udt.nakcodec import decode as nak_decode
from repro.udt.nakcodec import encode as nak_encode
from repro.udt.params import UDT_HEADER, UdtConfig
from repro.udt.seqno import seq_cmp, seq_dec, seq_inc, seq_off


class Scheduler(Protocol):
    def now(self) -> float: ...

    def call_at(self, time: float, fn: Callable[[], None]) -> Any: ...

    def cancel(self, handle: Any) -> None: ...


TransmitFn = Callable[[Any, int], None]  # (message, wire size in bytes)
DeliverFn = Callable[[int, Optional[bytes]], None]

#: Seconds between handshake requests while the peer has not answered.
HANDSHAKE_RETRY_S = 0.25
#: Handshake requests an initiator sends, the first included, before it
#: gives up and closes: a connect timeout of 10 s.  A peer that never
#: answers (gone, or closed by a Shutdown that beat its handshake
#: response) then costs 40 datagrams, not one every 0.25 s for the rest
#: of the run.
HANDSHAKE_BUDGET = 40


@dataclass
class UdtStats:
    """Counters exposed for experiments and the host cost model."""

    data_pkts_sent: int = 0
    data_bytes_sent: int = 0
    retransmitted_pkts: int = 0
    data_pkts_received: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    ack2_sent: int = 0
    naks_sent: int = 0
    naks_received: int = 0
    loss_reported: int = 0
    exp_events: int = 0
    freezes: int = 0
    ctrl_bytes_sent: int = 0
    buffer_drops: int = 0


class UdtCore:
    """One endpoint of a UDT connection."""

    def __init__(
        self,
        config: UdtConfig,
        scheduler: Scheduler,
        transmit: TransmitFn,
        deliver: Optional[DeliverFn] = None,
        cc: Optional[CongestionControl] = None,
        init_seq: int = 0,
        name: str = "udt",
        meter: Optional[Any] = None,
        bus: Optional[OB.EventBus] = None,
    ):
        self.config = config
        self.sched = scheduler
        self._transmit = transmit
        self.name = name
        self.meter = meter  # hostmodel CPU meter; charged when present
        #: telemetry bus, its own when not given.  Emit sites are guarded
        #: by ``bus.enabled`` so an idle bus costs one branch.
        self.bus = bus if bus is not None else OB.EventBus()
        self.stats = UdtStats()

        self.cc = cc if cc is not None else UdtNativeCC(config)
        self.cc.init(_CcView(self))
        self.cc.bus = self.bus
        self.cc.src = self.name

        # --- connection state ------------------------------------------
        self.connected = False
        self.closed = False
        self._start_time = scheduler.now()
        self._hs_timer: Any = None
        self._hs_sent = 0  # handshake requests sent (initiator)
        self._is_initiator = False
        self.peer_mss: Optional[int] = None

        # --- sender state -------------------------------------------------
        self.init_seq = init_seq
        self.curr_seq = init_seq  # next NEW sequence number to assign
        self.snd_last_ack = init_seq  # everything before this is acked
        self.max_seq_sent = seq_dec(init_seq)  # largest sent so far
        self.snd_loss = SenderLossList()
        self.snd_buffer = SendBuffer(config.snd_buffer_pkts, config.payload_size)
        self.flow_window = 16.0  # peer-advertised, replaced at handshake
        self.rtt = 0.1
        self.rtt_var = 0.05
        self.recv_rate = 0.0  # EWMA of peer-measured delivery rate (pkts/s)
        self.bandwidth = 0.0  # EWMA of peer link-capacity estimate (pkts/s)
        self._send_event: Any = None
        # Fast-path pacing timer: when the scheduler offers fire-and-forget
        # ``post_at`` (the sim engine does), the per-packet send tick runs
        # without allocating a cancellable Event — ``_send_scheduled``
        # dedupes and ``closed``/``connected`` guards make cancel moot.
        self._post_at = getattr(scheduler, "post_at", None)
        self._send_scheduled = False
        self._freeze_until = 0.0
        self._pair_pending = False
        self._unlimited_source = False
        # Hybrid-tier gate (repro.sim.fluid): while held, NEW data stays
        # queued but loss-list retransmissions continue so recovery can
        # finish and the pipe drain to a quiescent state.
        self._fluid_hold = False
        # hot-path caches of derived config values
        self._probe_interval = config.probe_interval
        self._payload_size = config.payload_size
        # §4.4: the real inter-send interval (EWMA).  On hosts where one
        # send costs more than the nominal period, the controller must
        # correct P' with the achieved rate or rate control is impaired.
        self.achieved_period = 0.0
        self._last_emit_time: Optional[float] = None

        # --- receiver state -----------------------------------------------
        self.rcv_loss = ReceiverLossList()
        self.rcv_buffer = ReceiveBuffer(config.rcv_buffer_pkts, deliver)
        self.lrsn: Optional[int] = None  # largest received sequence number
        self.arrivals = ArrivalRecorder()
        self.probes = ProbeRecorder()
        self.rtt_est = RttEstimator()
        self._ack_no = 0
        self._ack_window: dict[int, Tuple[int, float]] = {}
        self._last_ack_seq_sent: Optional[int] = None
        self._data_since_ack = 0
        self._speed_ewma = 0.0
        self._syn_timer: Any = None
        self._syn_deadline = 0.0  # next SYN-tick fire time (fluid re-arm phase)
        self._exp_timer: Any = None
        self._exp_count = 1
        self._last_arrival = scheduler.now()
        self._rtt_sampled = False
        #: sizes (packets) of each detected loss event — Figure 8's series.
        self.loss_events: list[int] = []
        #: optional tap fired for every accepted (non-duplicate) data
        #: packet — NS-2-style sink arrival sampling for stability plots.
        self.arrival_cb: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Initiate the handshake (client side)."""
        self._is_initiator = True
        self._request_handshake()

    def listen(self) -> None:
        """Passively wait for a handshake (server side)."""

    def _request_handshake(self) -> None:
        """Send a handshake request and arm its resend, or close once
        :data:`HANDSHAKE_BUDGET` requests have gone unanswered."""
        if self.connected or self.closed:
            return
        if self._hs_sent == HANDSHAKE_BUDGET:
            self._hs_timer = None  # the timer that is firing now
            self.close()
            return
        self._hs_sent += 1
        self._send_handshake(req_type=1)
        self._hs_timer = self.sched.call_at(
            self.sched.now() + HANDSHAKE_RETRY_S, self._request_handshake
        )

    def _send_handshake(self, req_type: int) -> None:
        hs = P.Handshake(
            ts=self._ts(),
            init_seq=self.init_seq,
            mss=self.config.mss,
            flow_window=self._advertised_window_cap(),
            req_type=req_type,
        )
        self._xmit(hs)

    def _advertised_window_cap(self) -> int:
        return min(self.config.rcv_buffer_pkts, self.config.max_flow_window)

    def _become_connected(self, hs: P.Handshake) -> None:
        self.connected = True
        self.peer_mss = hs.mss
        self.flow_window = float(hs.flow_window)
        self.cc.max_cwnd = float(hs.flow_window)
        self.rcv_buffer.start(hs.init_seq)
        self.lrsn = seq_dec(hs.init_seq)
        if self._hs_timer is not None:
            self.sched.cancel(self._hs_timer)
            self._hs_timer = None
        now = self.sched.now()
        if self.bus.enabled:
            self.bus.emit(
                OB.CONN_CONNECTED,
                now,
                self.name,
                peer_seq=hs.init_seq,
                flow_window=hs.flow_window,
                initiator=self._is_initiator,
            )
        self._syn_deadline = now + self.config.syn
        self._syn_timer = self.sched.call_at(self._syn_deadline, self._on_syn_timer)
        self._arm_exp_timer()
        self._ensure_send_scheduled()

    def close(self) -> None:
        if self.closed:
            return
        if self.connected:
            self._xmit(P.Shutdown(ts=self._ts()))
        if self.bus.enabled:
            self.bus.emit(
                OB.CONN_CLOSED,
                self.sched.now(),
                self.name,
                data_pkts_sent=self.stats.data_pkts_sent,
                data_pkts_received=self.stats.data_pkts_received,
            )
        self.closed = True
        self.connected = False
        for h in (self._send_event, self._syn_timer, self._exp_timer, self._hs_timer):
            if h is not None:
                self.sched.cancel(h)
        self._send_event = self._syn_timer = self._exp_timer = self._hs_timer = None

    def detach(self) -> None:
        """Drop the binding's transmit and deliver callbacks, so a closed
        core no longer refers to the endpoint that drives it.  A detached
        core sends and delivers nothing; ``stats`` stay readable."""
        self._transmit = _discard
        self.rcv_buffer._deliver = None

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------
    def send(self, nbytes: int, data: Optional[bytes] = None) -> int:
        """Queue application data; returns the number of bytes accepted."""
        if self.closed:
            raise RuntimeError("socket closed")
        accepted = self.snd_buffer.add(nbytes, data)
        if accepted:
            self._ensure_send_scheduled()
        return accepted

    def send_forever(self) -> None:
        """Mark this endpoint as an unlimited bulk source (sim workloads)."""
        self._unlimited_source = True
        self._ensure_send_scheduled()

    def post_recv_buffer(self, nbytes: int) -> None:
        """Overlapped IO: post user memory the receiver fills directly."""
        self.rcv_buffer.post_user_buffer(nbytes)

    # ------------------------------------------------------------------
    # datagram input
    # ------------------------------------------------------------------
    def on_datagram(self, msg: Any, size: int) -> None:
        if self.closed:
            return
        # Any arrival resets the EXP escalation.  The timer itself is not
        # re-armed per packet (that would double the event count at high
        # rates); it checks ``_last_arrival`` lazily when it fires.
        self._exp_count = 1
        self._last_arrival = now = self.sched.now()
        kind = msg.type_name
        if kind == "data":
            self._on_data(msg, now)
        elif kind == "ack":
            self._on_ack(msg)
        elif kind == "nak":
            self._on_nak(msg)
        elif kind == "ack2":
            self._on_ack2(msg)
        elif kind == "handshake":
            self._on_handshake(msg)
        elif kind == "shutdown" and self.connected:
            # A Shutdown before the handshake completes cannot end a
            # connection that does not exist yet; obeying it would close a
            # listening or handshaking endpoint for good.
            self.closed = True
            self.connected = False
        # keepalive needs no action beyond the EXP reset above

    def _on_handshake(self, hs: P.Handshake) -> None:
        if hs.req_type == 1:  # request reaching the listener (or a re-send)
            if not self.connected:
                self._become_connected(hs)
            self._send_handshake(req_type=-1)
        elif hs.req_type == -1 and not self.connected:
            self._become_connected(hs)

    # ------------------------------------------------------------------
    # fluid-tier hooks (repro.sim.fluid; no-ops unless a FluidController
    # drives them — packet-mode behaviour is untouched)
    # ------------------------------------------------------------------
    def fluid_hold(self, hold: bool) -> None:
        """Gate NEW data while the hybrid tier drains the pipe.

        Loss-list retransmissions keep flowing (recovery must complete
        before a fluid span can start); clearing the hold re-primes the
        pacing timer.
        """
        self._fluid_hold = hold
        if not hold:
            self._ensure_send_scheduled()

    def fluid_quiesced(self) -> bool:
        """True iff this endpoint has no protocol work in flight.

        Sender side: every packet sent is acknowledged and the loss list
        is empty.  Receiver side: no sequence holes awaiting NAK service.
        """
        if not self.connected or self.closed:
            return False
        if self.snd_loss.peek() is not None or self.rcv_loss.first() is not None:
            return False
        return seq_off(self.snd_last_ack, self.curr_seq) == 0

    def fluid_freeze(self) -> float:
        """Suspend the periodic SYN/EXP timers for a fluid span.

        Returns the captured SYN deadline; :meth:`fluid_resume` uses it
        to re-arm the tick grid phase-preserved, so a span must not
        shift later ACK/NAK times off the deterministic schedule.
        """
        for h in (self._syn_timer, self._exp_timer):
            if h is not None:
                self.sched.cancel(h)
        self._syn_timer = self._exp_timer = None
        return self._syn_deadline

    def fluid_resume(self, rate_pps: float, syn_deadline: float) -> None:
        """Re-enter packet mode after a fluid span.

        Re-arms the SYN tick on its pre-span phase, resets the EXP
        machinery as if the peer had just been heard from, and seeds the
        arrival-speed EWMA with the analytic rate so the first window
        advertisement after the span matches steady state.
        """
        now = self.sched.now()
        syn = self.config.syn
        k = math.ceil((now - syn_deadline) / syn - 1e-9)
        if k < 0:
            k = 0
        self._syn_deadline = syn_deadline + k * syn
        self._syn_timer = self.sched.call_at(self._syn_deadline, self._on_syn_timer)
        self._last_arrival = now
        self._exp_count = 1
        self._arm_exp_timer()
        if rate_pps > 0:
            self._speed_ewma = rate_pps
        self._ensure_send_scheduled()

    # ------------------------------------------------------------------
    # sender half
    # ------------------------------------------------------------------
    def _ensure_send_scheduled(self) -> None:
        if not self.connected or self.closed:
            return
        if self._send_scheduled or self._send_event is not None:
            return
        self._schedule_send(max(self.sched.now(), self._freeze_until))

    def _schedule_send(self, t: float) -> None:
        if self._post_at is not None:
            self._send_scheduled = True
            self._post_at(t, self._on_send_timer, t)
        else:
            self._send_event = self.sched.call_at(t, self._on_send_timer)

    def _on_send_timer(self, now: Optional[float] = None) -> None:
        """The pacing tick: one data packet, then the next tick.

        Posted through ``post_at`` (the simulator), the tick is handed
        its own fire time, which is the clock when it runs; a binding
        that offers only ``call_at`` calls it bare and the clock is read.
        Re-arming is :meth:`_schedule_send` written out, once per packet.
        """
        self._send_event = None
        self._send_scheduled = False
        if not self.connected or self.closed:
            return
        if now is None:
            now = self.sched.now()
        if now < self._freeze_until:
            self._schedule_send(self._freeze_until)
            return
        sent = self._try_send_one(now)
        if not sent:
            # Break the achieved-rate measurement chain: idle or blocked
            # gaps must not count as send intervals (§4.4).
            self._last_emit_time = None
            return  # idle; a future ACK/app-write/NAK will reschedule
        # The second packet of a probe pair leaves back-to-back (§3.4).
        t = now if self._pair_pending else now + self.cc.period
        post_at = self._post_at
        if post_at is not None:
            self._send_scheduled = True
            post_at(t, self._on_send_timer, t)
        else:
            self._send_event = self.sched.call_at(t, self._on_send_timer)

    def _try_send_one(self, now: float) -> bool:
        """Transmit one data packet: loss list first, then new data.

        The §3.2 window is a threshold on *unacknowledged* packets, so it
        gates retransmissions too: recovery proceeds oldest-hole-first
        within the window instead of flooding the whole loss list back
        into an already-congested queue.

        Runs once per data packet sent — self-attribute loads are hoisted
        into locals on purpose.
        """
        snd_loss = self.snd_loss
        snd_buffer = self.snd_buffer
        last_ack = self.snd_last_ack
        window = min(self.flow_window, self.cc.window)
        # 1. retransmission (the count is a plain load: the list is almost
        # always empty)
        while snd_loss.ranges.count:
            seq = snd_loss.peek()
            if seq_cmp(seq, last_ack) < 0:
                snd_loss.pop()
                continue  # already acknowledged meanwhile
            if seq_off(last_ack, seq) >= window:
                return False  # beyond the unacked threshold; wait for ACKs
            snd_loss.pop()
            entry = snd_buffer.lookup(seq)
            if entry is None:
                continue
            size, data = entry
            self._pair_pending = False
            self._emit_data(seq, size, data, True, now)
            return True
        # 2. new data, if the window allows
        if self._fluid_hold:
            return False  # hybrid tier is draining the pipe
        # Unacknowledged packets are the send buffer's window, so its
        # length is seq_off(last_ack, curr_seq) without the arithmetic.
        if len(snd_buffer.unacked) >= window:
            return False
        seq = self.curr_seq
        entry = snd_buffer.next_packet(
            seq, self._payload_size if self._unlimited_source else 0
        )
        if entry is None:
            return False
        size, data = entry
        self.curr_seq = seq_inc(seq)
        self.max_seq_sent = seq  # new data: always curr_seq's predecessor
        # A probe pair starts at every 16th packet of the sequence space.
        self._pair_pending = seq % self._probe_interval == 0
        self._emit_data(seq, size, data, False, now)
        return True

    def _emit_data(
        self,
        seq: int,
        size: int,
        data: Optional[bytes],
        retransmitted: bool,
        now: float,
    ) -> None:
        last = self._last_emit_time
        if last is not None and not self._pair_pending:
            interval = now - last
            if interval > 0:
                self.achieved_period = (
                    interval
                    if self.achieved_period == 0
                    else (self.achieved_period * 7 + interval) / 8
                )
        self._last_emit_time = now
        # Positional (seq, size, ts, dst_id, data, retransmitted); the
        # timestamp is _ts() and the wire size DataPacket.wire_size, both
        # inlined: one allocation and no helper frames per packet.
        pkt = P.DataPacket(
            seq,
            size,
            int((now - self._start_time) * 1e6) & 0xFFFFFFFF,
            0,
            data,
            retransmitted,
        )
        stats = self.stats
        stats.data_pkts_sent += 1
        stats.data_bytes_sent += size
        if retransmitted:
            stats.retransmitted_pkts += 1
        if self.meter is not None:
            self.meter.on_data_sent(size)
        if self.bus.detail:
            self.bus.emit(
                OB.PKT_SND, now, self.name, seq=seq, size=size, retx=retransmitted
            )
        self._transmit(pkt, UDT_HEADER + size)

    # -- sender-side control input ----------------------------------------
    def _on_ack(self, ack: P.Ack) -> None:
        # Pre-handshake control packets (reordered, duplicated or stray)
        # must not touch sender state; this guard also lets the protocol
        # model prove every SND_ACK/CC_SAMPLE emit happens connected.
        if not self.connected:
            return
        seq = ack.recv_seq
        # An ACK beyond the next new sequence number claims data never
        # sent: drop it before it touches any state, as a NAK's range.
        if seq_cmp(seq, self.curr_seq) > 0:
            return
        self.stats.acks_received += 1
        if self.meter is not None:
            self.meter.on_ctrl("ack")
        if seq_cmp(seq, self.snd_last_ack) > 0:
            self.snd_last_ack = seq
            self.snd_buffer.ack_upto(seq)
            self.snd_loss.remove_upto(seq_dec(seq))
        if not ack.light:
            if ack.rtt_us > 0:
                self.rtt = ack.rtt_us / 1e6
                self.rtt_var = ack.rtt_var_us / 1e6
                self._rtt_sampled = True
            self.flow_window = float(ack.buf_avail)
            if ack.recv_speed > 0:
                self.recv_rate = (
                    ack.recv_speed
                    if self.recv_rate == 0
                    else (self.recv_rate * 7 + ack.recv_speed) / 8
                )
            if ack.capacity > 0:
                self.bandwidth = (
                    ack.capacity
                    if self.bandwidth == 0
                    else (self.bandwidth * 7 + ack.capacity) / 8
                )
            self._xmit(P.Ack2(ts=self._ts(), ack_no=ack.ack_no))
            self.stats.ack2_sent += 1
        self.cc.on_ack(seq)
        if self.bus.enabled:
            self.bus.emit(
                OB.SND_ACK, self.sched.now(), self.name, seq=seq, light=ack.light
            )
            self._emit_cc_sample("ack")
        self._ensure_send_scheduled()

    def _on_nak(self, nak: P.Nak) -> None:
        if not self.connected:
            return
        self.stats.naks_received += 1
        if self.meter is not None:
            self.meter.on_ctrl("nak")
        try:
            ranges = nak_decode(nak.loss)
        except ValueError:
            return  # corrupt report: ignore; the receiver will re-send it
        biggest = None
        lost = 0
        accepted = []
        top = self.max_seq_sent
        for a, b in ranges:
            # Only [snd_last_ack, max_seq_sent] can be lost: anything
            # below is acknowledged, anything above was never sent.
            if seq_cmp(a, top) > 0:
                continue
            if seq_cmp(b, top) > 0:
                b = top
            if seq_cmp(a, self.snd_last_ack) < 0:
                if seq_cmp(b, self.snd_last_ack) < 0:
                    continue
                a = self.snd_last_ack
            self.snd_loss.insert(a, b)
            accepted.append((a, b))
            lost += seq_off(a, b) + 1
            if biggest is None or seq_cmp(b, biggest) > 0:
                biggest = b
        if biggest is None:
            return
        self.stats.loss_reported += lost
        self.cc.on_loss(
            LossEvent(ranges=accepted, biggest_seq=biggest, lost_packets=lost)
        )
        froze = False
        if self.cc.freeze_requested:
            self.cc.freeze_requested = False
            self._freeze_until = self.sched.now() + self.config.syn
            self.stats.freezes += 1
            froze = True
        if self.bus.enabled:
            self.bus.emit(
                OB.SND_NAK,
                self.sched.now(),
                self.name,
                lost=lost,
                ranges=len(ranges),
                froze=froze,
            )
            self._emit_cc_sample("nak")
        self._ensure_send_scheduled()

    def _emit_cc_sample(self, trigger: str) -> None:
        """One timeline sample: the full CC state after an update.

        Emitted after every congestion-control update (ACK/NAK), this is
        the series the paper's Figure 4/6/7 plots are drawn from.
        Callers check ``bus.enabled`` first.
        """
        cc = self.cc
        period = cc.period
        self.bus.emit(
            OB.CC_SAMPLE,
            self.sched.now(),
            self.name,
            trigger=trigger,
            rate_bps=self.config.mss * 8.0 / period if period > 0 else 0.0,
            period=period,
            cwnd=cc.window,
            flow_window=self.flow_window,
            rtt=self.rtt,
            bw_est=self.bandwidth,
            recv_rate=self.recv_rate,
            loss_len=len(self.snd_loss),
            exp_count=self._exp_count,
            slow_start=getattr(cc, "slow_start", False),
        )

    # ------------------------------------------------------------------
    # receiver half
    # ------------------------------------------------------------------
    def _on_data(self, pkt: P.DataPacket, now: float) -> None:
        """One arriving data packet (locals hoisted: the receive hot path)."""
        lrsn = self.lrsn
        if not self.connected or lrsn is None:
            return
        seq = pkt.seq
        size = pkt.size
        rcv_buffer = self.rcv_buffer
        # Receive-buffer overflow mirrors the OS dropping datagrams before
        # the protocol sees them: it looks like network loss and the normal
        # NAK/EXP machinery recovers it.  The expected packet fits whenever
        # the buffer has room, so only another one asks the buffer's window
        # (identity, not ordering, of two in-range seqs is wrap-safe).
        ne = rcv_buffer.next_expected
        if ne is not None and (
            seq != ne  # lint: disable=seqno-taint
            or rcv_buffer.unread_packets >= rcv_buffer.capacity_pkts
        ) and not rcv_buffer.accepts(seq):
            self.stats.buffer_drops += 1
            if self.bus.enabled:
                self.bus.emit(OB.RCV_BUFFER_DROP, now, self.name, seq=seq, size=size)
            return
        self.stats.data_pkts_received += 1
        if self.bus.detail:
            self.bus.emit(OB.PKT_RCV, now, self.name, seq=seq, retx=pkt.retransmitted)
        if self.meter is not None:
            self.meter.on_data_received(size)
        # Measurement hooks (§3.2 / §3.4).
        self.arrivals.on_arrival(now)
        if not pkt.retransmitted:
            phase = seq % self._probe_interval
            if phase == 0:
                self.probes.on_probe1(now)
            elif phase == 1:
                self.probes.on_probe2(now)

        off = seq_off(lrsn, seq)
        if off > 1:
            # A hole: packets lrsn+1 .. seq-1 are missing.  NAK immediately
            # so the sender can react as fast as possible (§3.1).
            first, last = seq_inc(lrsn), seq_dec(seq)
            self.rcv_loss.insert(first, last, now=now)
            self.loss_events.append(off - 1)
            if self.meter is not None:
                self.meter.on_loss_processing()
            if self.bus.enabled:
                self.bus.emit(
                    OB.RCV_LOSS, now, self.name, first=first, last=last, length=off - 1
                )
            self._send_nak([(first, last)])
            self.lrsn = seq
        elif off == 1:
            self.lrsn = seq
        else:
            # Retransmission (or duplicate): clear it from the loss list.
            if self.meter is not None:
                self.meter.on_loss_processing()
            self.rcv_loss.remove(seq)
        accepted = rcv_buffer.on_data(seq, size, pkt.data)
        if accepted and self.arrival_cb is not None:
            self.arrival_cb(size)
        self._data_since_ack += 1

    def _send_nak(self, ranges: List[Tuple[int, int]]) -> None:
        words = nak_encode(ranges)
        self._xmit(P.Nak(ts=self._ts(), loss=words))
        self.stats.naks_sent += 1

    def _on_syn_timer(self) -> None:
        """The fixed-interval tick driving ACK and NAK retransmission."""
        if self.closed or not self.connected:
            return
        self._send_ack_if_due()
        rtt = self.rtt_est.rtt
        expired = self.rcv_loss.expired_ranges(self.sched.now(), rtt)
        if expired:
            self._send_nak(expired)
        self._syn_deadline = self.sched.now() + self.config.syn
        self._syn_timer = self.sched.call_at(self._syn_deadline, self._on_syn_timer)

    def _send_ack_if_due(self) -> None:
        if self.lrsn is None:
            return
        first_hole = self.rcv_loss.first()
        ack_seq = first_hole if first_hole is not None else seq_inc(self.lrsn)
        # Identity (not ordering) of two in-range seqs is wrap-safe: this
        # only suppresses a duplicate ACK, never orders the space.
        if ack_seq == self._last_ack_seq_sent and self._data_since_ack == 0:  # lint: disable=seqno-taint
            return
        self._data_since_ack = 0
        self._last_ack_seq_sent = ack_seq
        speed = self.arrivals.speed()
        capacity = self.probes.capacity()
        # Smooth the arrival speed (7/8 EWMA, mirroring the reference's
        # receiver-rate handling at the sender): retransmission catch-up
        # bursts arrive back-to-back at link rate and would otherwise
        # inflate the 16-sample median into a wildly oversized window.
        if speed > 0:
            self._speed_ewma = (
                speed if self._speed_ewma == 0 else (self._speed_ewma * 7 + speed) / 8
            )
        # Flow control (§3.2): W = AS * (SYN + RTT); advertise
        # min(W, free receiver buffer).  With flow control disabled the
        # advertisement degenerates to the buffer cap (Figure 7 ablation).
        if self.config.flow_control and self._speed_ewma > 0:
            # +16 packets of headroom, like the reference implementation's
            # congestion window: pure AS*(SYN+RTT) is self-limiting (the
            # window caps delivery at the rate that produced the window).
            w = self._speed_ewma * (self.config.syn + self.rtt_est.rtt) + 16.0
            window = min(w, float(self.rcv_buffer.available))
            window = max(window, 2.0)
        else:
            window = float(self.rcv_buffer.available)
        self._ack_no += 1
        ack = P.Ack(
            ts=self._ts(),
            ack_no=self._ack_no,
            recv_seq=ack_seq,
            rtt_us=int(self.rtt_est.rtt * 1e6),
            rtt_var_us=int(self.rtt_est.var * 1e6),
            buf_avail=int(window),
            recv_speed=int(speed),
            capacity=int(capacity),
        )
        self._ack_window[self._ack_no] = (ack_seq, self.sched.now())
        if len(self._ack_window) > 64:
            # ack numbers only grow, so insertion order is age order
            del self._ack_window[next(iter(self._ack_window))]
        self._xmit(ack)
        self.stats.acks_sent += 1

    def _on_ack2(self, ack2: P.Ack2) -> None:
        if not self.connected:
            return
        entry = self._ack_window.pop(ack2.ack_no, None)
        if entry is None:
            return
        _, sent_at = entry
        self.rtt_est.update(self.sched.now() - sent_at)

    # ------------------------------------------------------------------
    # EXP (timeout) handling — §3.5 congestion-collapse guard
    # ------------------------------------------------------------------
    def _exp_interval(self) -> float:
        """Expiration grows with consecutive timeouts (§3.5)."""
        if not self._rtt_sampled:
            # No RTT measurement yet (e.g. the very first RTT of a long
            # path): use a conservative initial timeout, like classic
            # TCP's 3 s initial RTO, or 1 s-RTT paths false-fire before
            # their first ACK can possibly arrive.
            return max(3.0, self.config.min_exp_timeout) * self._exp_count
        base = self._exp_count * (self.rtt + 4 * self.rtt_var) + self.config.syn
        return max(base, self.config.min_exp_timeout * self._exp_count)

    def _arm_exp_timer(self) -> None:
        if self.closed:
            return
        if self._exp_timer is not None:
            self.sched.cancel(self._exp_timer)
        self._exp_timer = self.sched.call_at(
            self.sched.now() + self._exp_interval(), self._on_exp_timer
        )

    def _on_exp_timer(self) -> None:
        self._exp_timer = None
        if self.closed or not self.connected:
            return
        # Lazy check: if the peer was heard from recently, just re-arm.
        deadline = self._last_arrival + self._exp_interval()
        now = self.sched.now()
        if now < deadline - 1e-12:
            self._exp_timer = self.sched.call_at(deadline, self._on_exp_timer)
            return
        unacked = seq_off(self.snd_last_ack, self.curr_seq)
        if unacked > 0:
            self.stats.exp_events += 1
            if self.bus.enabled:
                self.bus.emit(
                    OB.EXP_TIMEOUT,
                    now,
                    self.name,
                    exp_count=self._exp_count,
                    unacked=unacked,
                )
            # No feedback for a full timeout: treat everything unacked as
            # lost (it will be resent from the loss list) and notify CC.
            if len(self.snd_loss) == 0:
                self.snd_loss.insert(self.snd_last_ack, seq_dec(self.curr_seq))
                self.cc.on_timeout()
            self._ensure_send_scheduled()
        elif self._is_initiator:
            self._xmit(P.KeepAlive(ts=self._ts()))
        self._exp_count += 1
        if self._exp_count > self.config.max_exp_count:
            self.close()
            return
        self._arm_exp_timer()

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _ts(self) -> int:
        return int((self.sched.now() - self._start_time) * 1e6) & 0xFFFFFFFF

    def _xmit(self, msg: Any) -> None:
        size = msg.wire_size
        if msg.type_name != "data":
            self.stats.ctrl_bytes_sent += size
            if self.meter is not None:
                self.meter.on_ctrl_sent(size)
        self._transmit(msg, size)

    # Convenience for experiments.
    @property
    def delivered_bytes(self) -> int:
        return self.rcv_buffer.delivered_bytes


def _discard(msg: Any, size: int) -> None:
    """The transmit callback of a detached core."""


class _CcView:
    """The restricted endpoint view handed to congestion controllers."""

    __slots__ = ("_core",)

    def __init__(self, core: UdtCore):
        self._core = core

    def now(self) -> float:
        return self._core.sched.now()

    @property
    def rtt(self) -> float:
        return self._core.rtt

    @property
    def recv_rate(self) -> float:
        return self._core.recv_rate

    @property
    def bandwidth(self) -> float:
        return self._core.bandwidth

    @property
    def max_seq_sent(self) -> int:
        return self._core.max_seq_sent

    @property
    def achieved_period(self) -> float:
        return self._core.achieved_period
