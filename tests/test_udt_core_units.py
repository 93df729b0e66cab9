"""Unit tests driving the sans-IO UdtCore directly (no simulator).

A hand-rolled scheduler steps virtual time manually, and transmitted
messages are captured in lists — exactly how a third harness would embed
the core, which is the point of the sans-IO design.
"""

import heapq
import itertools

import pytest

from repro.udt import packets as P
from repro.udt.core import HANDSHAKE_BUDGET, UdtCore
from repro.udt.params import UdtConfig
from repro.udt.seqno import seq_cmp


class ManualScheduler:
    def __init__(self):
        self.t = 0.0
        self._heap = []
        self._counter = itertools.count()

    def now(self):
        return self.t

    def call_at(self, when, fn):
        entry = [when, next(self._counter), fn, False]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle):
        handle[3] = True

    def advance(self, until):
        while self._heap and self._heap[0][0] <= until:
            when, _, fn, cancelled = heapq.heappop(self._heap)
            if cancelled:
                continue
            self.t = when
            fn()
        self.t = until


def make_pair(config=None, loss=None):
    """Two cores wired back-to-back through in-memory 'wires'."""
    cfg = config if config is not None else UdtConfig()
    sched = ManualScheduler()
    wires = {"a->b": [], "b->a": []}

    a = UdtCore(cfg, sched, lambda m, s: wires["a->b"].append((m, s)), name="a")
    b = UdtCore(cfg, sched, lambda m, s: wires["b->a"].append((m, s)), name="b")

    def pump():
        moved = True
        while moved:
            moved = False
            while wires["a->b"]:
                m, s = wires["a->b"].pop(0)
                if loss is None or not loss(m):
                    b.on_datagram(m, s)
                moved = True
            while wires["b->a"]:
                m, s = wires["b->a"].pop(0)
                if loss is None or not loss(m):
                    a.on_datagram(m, s)
                moved = True

    return sched, a, b, pump


def step(sched, pump, until, dt=0.001):
    t = sched.t
    while t < until:
        t = min(t + dt, until)
        sched.advance(t)
        pump()


class TestHandshake:
    def test_connect_establishes(self):
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        assert a.connected and b.connected

    def test_duplicate_handshake_is_idempotent(self):
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        hs = P.Handshake(init_seq=a.init_seq, mss=1500, flow_window=64, req_type=1)
        b.on_datagram(hs, hs.wire_size)  # replayed request
        pump()
        assert a.connected and b.connected
        assert b.rcv_buffer.next_expected == a.init_seq or b.rcv_buffer.delivered_packets >= 0

    def test_flow_window_adopted_from_peer(self):
        cfg = UdtConfig(rcv_buffer_pkts=77)
        sched, a, b, pump = make_pair(cfg)
        b.listen()
        a.connect()
        pump()
        assert a.flow_window == 77.0
        assert a.cc.max_cwnd == 77.0

    def test_shutdown_before_the_handshake_is_ignored(self):
        """A stray Shutdown reaching a listener, and one reaching the
        initiator mid-handshake, close nothing: the handshake still
        completes and data is delivered."""
        sched, a, b, pump = make_pair()
        shutdown = P.Shutdown()
        b.listen()
        b.on_datagram(shutdown, shutdown.wire_size)
        a.connect()
        a.on_datagram(shutdown, shutdown.wire_size)
        assert not (a.closed or b.closed)
        pump()
        assert a.connected and b.connected
        a.send(20 * 1456)
        step(sched, pump, 0.5)
        assert b.rcv_buffer.delivered_packets == 20

    def test_an_unanswered_handshake_gives_up_after_its_budget(self):
        """A peer that never answers costs exactly the budgeted requests:
        the initiator then closes and leaves no handshake timer behind."""
        sched = ManualScheduler()
        sent = []
        a = UdtCore(UdtConfig(), sched, lambda m, s: sent.append(m), name="a")
        a.connect()
        sched.advance(60.0)
        assert [m.type_name for m in sent] == ["handshake"] * HANDSHAKE_BUDGET
        assert a.closed and not a.connected
        assert a._hs_timer is None
        assert all(cancelled for *_, cancelled in sched._heap)

    def test_shutdown_closes_a_connected_core(self):
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        a.close()
        pump()
        assert b.closed and not b.connected


class TestAckCadence:
    def test_one_ack_per_syn_not_per_packet(self):
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        a.send(50 * 1456)
        step(sched, pump, 0.25)
        assert b.stats.acks_sent <= 30  # ~1 per SYN (25 SYNs elapsed)
        assert a.stats.data_pkts_sent >= 50

    def test_no_acks_when_idle(self):
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        a.send(5 * 1456)
        step(sched, pump, 0.2)
        sent_after_transfer = b.stats.acks_sent
        step(sched, pump, 1.0)
        # idle connection: at most a couple of trailing ACKs
        assert b.stats.acks_sent - sent_after_transfer <= 2

    def test_ack2_closes_rtt_loop(self):
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        a.send(20 * 1456)
        step(sched, pump, 0.5)
        assert a.stats.ack2_sent > 0
        assert b.rtt_est._initialized


class TestLossRecovery:
    def test_hole_triggers_immediate_nak(self):
        drop = {"armed": True, "dropped": 0}

        def loss(m):
            if m.type_name == "data" and m.seq == 5 and drop["armed"]:
                drop["armed"] = False
                drop["dropped"] += 1
                return True
            return False

        sched, a, b, pump = make_pair(loss=loss)
        b.listen()
        a.connect()
        pump()
        a.send(20 * 1456)
        step(sched, pump, 0.5)
        assert drop["dropped"] == 1
        assert b.stats.naks_sent >= 1
        assert a.stats.retransmitted_pkts >= 1
        assert b.rcv_buffer.delivered_packets == 20

    def test_freeze_after_fresh_loss(self):
        def loss(m):
            return m.type_name == "data" and m.seq in (5, 6, 7) and m.retransmitted is False

        sched, a, b, pump = make_pair(loss=loss)
        b.listen()
        a.connect()
        pump()
        a.send(30 * 1456)
        step(sched, pump, 0.5)
        assert a.stats.freezes >= 1

    def test_loss_event_sizes_recorded(self):
        def loss(m):
            return m.type_name == "data" and 5 <= m.seq <= 9 and not m.retransmitted

        sched, a, b, pump = make_pair(loss=loss)
        b.listen()
        a.connect()
        pump()
        a.send(30 * 1456)
        step(sched, pump, 0.5)
        assert 5 in b.loss_events


class TestHostileNak:
    """A NAK may only report sequence numbers the sender has sent and not
    yet had acknowledged; the rest of a range is dropped."""

    def _sender(self):
        # ACKs are dropped, so the 16-packet initial window stays unacked.
        sched, a, b, pump = make_pair(loss=lambda m: m.type_name == "ack")
        b.listen()
        a.connect()
        pump()
        a.send(16 * 1456)
        step(sched, pump, 0.5)
        assert a.max_seq_sent == 15 and a.snd_last_ack == 0
        return a

    def test_range_beyond_max_seq_sent_is_dropped(self):
        a = self._sender()
        period = a.cc.period
        a.on_datagram(P.Nak(loss=[0x80000000 | 100, 2_000_000]), 24)
        assert len(a.snd_loss) == 0 and a.stats.loss_reported == 0
        assert a.cc.period == period and a.stats.freezes == 0

    def test_range_straddling_max_seq_sent_is_clamped(self):
        a = self._sender()
        a.on_datagram(P.Nak(loss=[0x80000000 | 10, 2_000_000]), 24)
        assert len(a.snd_loss) == 6 and a.stats.loss_reported == 6
        a.on_datagram(P.Nak(loss=[2_000_000]), 24)
        assert len(a.snd_loss) == 6 and a.stats.loss_reported == 6


class TestHostileAck:
    """An ACK may acknowledge only what the sender has sent: one beyond the
    next new sequence number is ignored before it touches any state."""

    FORGED = P.Ack(ack_no=7, recv_seq=1_000_000, light=True)

    def _pair(self):
        """64 packets queued; ACKs dropped until ``acks[0]`` is set and the
        first transmission of packets 5-7 lost."""
        acks, lost = [False], {5, 6, 7}

        def loss(m):
            if m.type_name == "ack":
                return not acks[0]
            if m.type_name == "data" and m.seq in lost:
                lost.discard(m.seq)
                return True
            return False

        sched, a, b, pump = make_pair(loss=loss)
        b.listen()
        a.connect()
        pump()
        a.send(64 * 1456)
        step(sched, pump, 0.5)
        assert a.snd_last_ack == 0 and seq_cmp(a.curr_seq, 8) > 0
        return sched, a, b, pump, acks

    def test_ack_beyond_curr_seq_changes_nothing(self):
        _, a, _, _, _ = self._pair()
        state = lambda: (  # noqa: E731
            a.snd_last_ack, a.snd_buffer.inflight_packets, len(a.snd_loss), a.stats.acks_received,
            a.stats.ack2_sent, a.cc.period, a.flow_window, a.rtt, a.bandwidth,
        )
        before = state()
        a.on_datagram(self.FORGED, 24)
        full = P.Ack(ack_no=8, recv_seq=1_000_000, rtt_us=1, buf_avail=1, capacity=9)
        a.on_datagram(full, 40)
        assert state() == before

    def test_transfer_completes_after_a_forged_ack(self):
        sched, a, b, pump, acks = self._pair()
        a.on_datagram(self.FORGED, 24)
        acks[0] = True
        step(sched, pump, 30.0, dt=0.01)
        assert b.delivered_bytes == 64 * 1456
        assert a.snd_buffer.inflight_packets == 0 and a.snd_last_ack == a.curr_seq


class TestProbePairs:
    def test_pair_sent_back_to_back(self):
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        # Instrument transmit times of seq 16 and 17 (a probe pair).
        times = {}
        original = a._transmit

        def spy(m, s):
            if m.type_name == "data" and m.seq in (16, 17):
                times[m.seq] = sched.now()
            original(m, s)

        a._transmit = spy
        a.send(40 * 1456)
        step(sched, pump, 1.0)
        assert 16 in times and 17 in times
        assert times[17] - times[16] < a.cc.period / 2  # back-to-back

    def test_probe_pairs_recorded_at_receiver(self):
        # The manual wires deliver with zero transit time, so a capacity
        # *estimate* is undefined here (pair interval 0); what the core
        # must guarantee is that every probe pair reaches the recorder.
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        a.send(64 * 1456)
        step(sched, pump, 1.0)
        assert len(b.probes.window) >= 2


class TestBufferLimits:
    def test_buffer_drop_counted_for_far_future_seq(self):
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        far = P.DataPacket(seq=a.init_seq + 100_000, size=100)
        b.on_datagram(far, far.wire_size)
        assert b.stats.buffer_drops == 1

    def test_in_order_packet_dropped_while_the_application_holds_the_buffer(self):
        """The expected packet skips the window test, not the room test: with
        every slot held for an application that has not read, it is a
        buffer drop, and once the application reads it is accepted."""
        sched, a, b, pump = make_pair(UdtConfig(rcv_buffer_pkts=4))
        b.rcv_buffer.hold_for_app = True
        b.listen()
        a.connect()
        pump()
        pkts = [P.DataPacket(seq=a.init_seq + i, size=100) for i in range(5)]
        for pkt in pkts:
            b.on_datagram(pkt, pkt.wire_size)
        assert (b.stats.data_pkts_received, b.stats.buffer_drops) == (4, 1)
        assert b.rcv_buffer.delivered_packets == 4
        assert b.rcv_buffer.app_read(1) == 1
        b.on_datagram(pkts[4], pkts[4].wire_size)
        assert (b.stats.data_pkts_received, b.stats.buffer_drops) == (5, 1)
        assert b.rcv_buffer.delivered_packets == 5

    def test_send_returns_accepted_bytes_only(self):
        cfg = UdtConfig(snd_buffer_pkts=4)
        sched, a, b, pump = make_pair(cfg)
        b.listen()
        a.connect()
        pump()
        accepted = a.send(100 * 1456)
        assert accepted <= 4 * cfg.payload_size

    def test_closed_send_raises(self):
        sched, a, b, pump = make_pair()
        a.close()
        with pytest.raises(RuntimeError):
            a.send(100)


class TestDuplex:
    def test_both_directions_carry_data_on_one_connection(self):
        """§4.8: 'The UDT library is a duplex transport service.  Each UDT
        entity has both a sender and a receiver.'"""
        sched = ManualScheduler()
        wires = {"a->b": [], "b->a": []}
        got = {"a": 0, "b": 0}
        cfg = UdtConfig()
        a = UdtCore(
            cfg, sched, lambda m, s: wires["a->b"].append((m, s)),
            deliver=lambda size, data: got.__setitem__("a", got["a"] + size),
            name="a",
        )
        b = UdtCore(
            cfg, sched, lambda m, s: wires["b->a"].append((m, s)),
            deliver=lambda size, data: got.__setitem__("b", got["b"] + size),
            name="b",
        )

        def pump():
            moved = True
            while moved:
                moved = False
                while wires["a->b"]:
                    m, s = wires["a->b"].pop(0)
                    b.on_datagram(m, s)
                    moved = True
                while wires["b->a"]:
                    m, s = wires["b->a"].pop(0)
                    a.on_datagram(m, s)
                    moved = True

        b.listen()
        a.connect()
        pump()
        a.send(30 * cfg.payload_size)
        b.send(20 * cfg.payload_size)
        step(sched, pump, 1.0)
        assert got["b"] == 30 * cfg.payload_size  # a -> b
        assert got["a"] == 20 * cfg.payload_size  # b -> a


class TestSpeculation:
    def test_in_order_stream_speculates_perfectly(self):
        sched, a, b, pump = make_pair()
        b.listen()
        a.connect()
        pump()
        a.send(50 * 1456)
        step(sched, pump, 0.5)
        rb = b.rcv_buffer
        assert rb.speculation_hits == 50
        assert rb.speculation_misses == 0

    def test_loss_costs_two_misses(self):
        def loss(m):
            return m.type_name == "data" and m.seq == 10 and not m.retransmitted

        sched, a, b, pump = make_pair(loss=loss)
        b.listen()
        a.connect()
        pump()
        a.send(30 * 1456)
        step(sched, pump, 1.0)
        rb = b.rcv_buffer
        # §4.6: "loss can cause 2 speculation errors (when it is lost and
        # when the retransmission arrives)"
        assert rb.speculation_misses == 2
        assert rb.delivered_packets == 30


class TestSendPathArithmetic:
    """The send path spells min/max/int() out (docs/PERFORMANCE.md, "What
    the frame budget cannot see"); each spelling returns what the builtin
    returned, object for object."""

    PAIRS = [(16.0, 16), (16, 16.0), (3, 2.5), (2.5, 3), (-0.0, 0.0), (0.0, -0.0),
             (float("nan"), 1.0), (1.0, float("nan")), (7, 7)]

    @pytest.mark.parametrize("a, b", PAIRS, ids=repr)
    def test_a_comparison_returns_what_min_and_max_return(self, a, b):
        # A tie keeps the first argument and its type: 16.0 beats 16.
        low = b if b < a else a
        high = b if b > a else a
        assert low is min(a, b) and high is max(a, b)

    def test_the_window_is_min_of_flow_and_congestion_window(self):
        """A tie keeps the flow window, a float, as min() did; either
        window alone bounds the packets in flight."""
        cases = [(16.0, 16, 16), (5.0, 40, 5), (40, 7.0, 7)]
        for flow_window, cc_window, in_flight in cases:
            sched, a, b, pump = make_pair()
            b.listen()
            a.connect()
            pump()
            a.flow_window = flow_window
            a.cc.window = cc_window
            a.send(100 * 1456)
            sched.advance(sched.t + 1.0)  # the ticks run; no ACK comes back
            assert len(a.snd_buffer.unacked) == in_flight

    def test_the_timestamp_wraps_at_2_to_the_32_microseconds(self):
        sent = []
        sched = ManualScheduler()
        sched.t = 3.25
        core = UdtCore(UdtConfig(), sched, lambda m, s: sent.append(m))
        wrap = 2**32 / 1e6
        for now in (3.25, 3.25 + wrap - 1e-6, 3.25 + wrap, 3.25 + wrap + 0.5e-6,
                    3.25 + 2 * wrap + 0.123456, 1e7 + 0.7):
            core._emit_data(0, 1456, None, False, now)
            assert sent[-1].ts == int((now - 3.25) * 1e6) & 0xFFFFFFFF

    @pytest.mark.parametrize("correct", [True, False])
    def test_only_a_core_that_corrects_its_rate_measures_its_send_period(self, correct):
        """§4.4's achieved period is read only by UdtNativeCC under
        ``correct_sending_rate``; a core without it never measures it."""
        sched, a, b, pump = make_pair(UdtConfig(correct_sending_rate=correct))
        b.listen()
        a.connect()
        pump()
        a.send(100 * 1456)
        step(sched, pump, 0.5)
        assert a.stats.data_pkts_sent >= 100
        if correct:
            assert a.achieved_period > 0
        else:
            assert a.achieved_period == 0.0 and a._last_emit_time is None
