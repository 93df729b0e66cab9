"""Focused unit tests for TCP sender mechanics (RTO, Karn, app-limited)."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Event
from repro.sim.topology import path_topology
from repro.tcp import TcpConfig, start_tcp_flow
from repro.tcp.agent import TcpAck, TcpData, TcpSender, TcpSink, _Port
from tests._reference_scoreboard import reference_sack_blocks


def make_sender(rate=10e6, rtt=0.02, **cfg):
    top = path_topology(rate, rtt)
    sink = TcpSink(top.dst, TcpConfig(**cfg))
    snd = TcpSender(top.src, sink.address, TcpConfig(**cfg))
    sink.src_addr = snd.port.address
    return top, snd, sink


def test_config_is_frozen_and_still_validated():
    """Sender and sink hold values read from it once."""
    cfg = TcpConfig(rwnd_pkts=16)
    with pytest.raises(FrozenInstanceError):
        cfg.rwnd_pkts = 32
    with pytest.raises(ValueError, match="mss"):
        TcpConfig(mss=40)
    with pytest.raises(ValueError, match="dupthresh"):
        TcpConfig(dupthresh=0)


class TestRto:
    def test_rto_doubles_on_timeout(self):
        top, snd, sink = make_sender()
        sink.port.handler = lambda seg: None  # receiver is silent
        snd.start()
        rto0 = snd.rto
        top.net.run(until=rto0 + 0.1)
        assert snd.stats.timeouts == 1
        assert snd.rto == pytest.approx(rto0 * 2)

    def test_rto_floor_and_ceiling(self):
        top, snd, sink = make_sender(min_rto=0.3, max_rto=1.0)
        snd._rtt_update(0.001)
        assert snd.rto == 0.3
        snd.rto = 0.9
        snd._on_rto()  # doubling clamps at max_rto
        assert snd.rto <= 1.0

    @pytest.mark.parametrize("min_rto, max_rto", [(1, 60), (0.2, 1), (1, 1), (2, 60)])
    def test_rto_clamp_is_min_of_max_with_its_ties_and_types(self, min_rto, max_rto):
        """The clamp is written as comparisons; it returns what
        ``min(max(rto, min_rto), max_rto)`` returns, object for object: a
        sample of 1/3 s makes the RTO exactly 1.0, which ties an int bound
        of 1 and stays the float, as the first argument of min/max does."""
        top, snd, sink = make_sender(min_rto=min_rto, max_rto=max_rto)
        for sample in (1 / 3, 0.001, 0.25, 2.0, 1 / 3):
            snd._rtt_update(sample)
            rto = snd.srtt + max(4.0 * snd.rttvar, 0.01)
            expected = min(max(rto, min_rto), max_rto)
            assert (snd.rto, type(snd.rto)) == (expected, type(expected))

    def test_rtt_sample_updates_srtt(self):
        top, snd, sink = make_sender()
        snd._rtt_update(0.1)
        assert snd.srtt == pytest.approx(0.1)
        snd._rtt_update(0.2)
        assert 0.1 < snd.srtt < 0.2

    def test_karn_no_sample_from_retransmission(self):
        top, snd, sink = make_sender()
        snd.start()
        top.net.run(until=0.1)
        # Force a retransmission of seq 0 and verify its send-time record
        # was discarded (no RTT sample can come from it).
        snd.board.mark_lost(snd.snd_una)
        snd._send_times[snd.snd_una] = 123.0
        snd._try_send()
        assert snd.snd_una not in snd._send_times


def rto_ticks(top, snd):
    """Heap entries that belong to ``snd``'s retransmission timer."""
    return [
        e for e in top.net.sim._heap
        if len(e) == 4 and getattr(e[2], "__self__", None) is snd
    ]


class TestRtoDeadlineTimer:
    def test_restarts_post_nothing_and_cancel_nothing(self, monkeypatch):
        cancels = []
        monkeypatch.setattr(Event, "cancel", lambda ev: cancels.append(ev))
        # rwnd just under the BDP: full rate, never a drop.
        top, snd, sink = make_sender(rwnd_pkts=16)
        snd.start()
        top.net.run(until=3.0)
        assert snd.stats.acks_received >= 2000
        assert snd.stats.retransmits == 0 and snd.stats.timeouts == 0
        assert snd.snd_nxt > snd.snd_una  # armed, data in flight
        assert len(rto_ticks(top, snd)) == 1
        assert cancels == []

    def test_closed_sender_ignores_stale_tick(self, monkeypatch):
        top, snd, sink = make_sender()
        sink.port.handler = lambda seg: None  # silent: the RTO would fire
        fired = []
        monkeypatch.setattr(snd, "_on_rto", lambda: fired.append(top.net.sim.now))
        snd.start()
        top.net.run(until=0.1)
        assert rto_ticks(top, snd)
        snd.close()
        top.net.run(until=3.0)
        assert fired == []
        assert rto_ticks(top, snd) == []  # went inert, did not re-post

    def test_done_sender_ignores_stale_tick(self, monkeypatch):
        top = path_topology(10e6, 0.02)
        f = start_tcp_flow(top.net, top.src, top.dst, nbytes=20_000)
        fired = []
        monkeypatch.setattr(f.sender, "_on_rto", lambda: fired.append(top.net.sim.now))
        top.net.run(until=0.5)
        assert f.done and rto_ticks(top, f.sender)
        top.net.run(until=3.0)
        assert fired == []
        assert rto_ticks(top, f.sender) == []

    def test_shrunken_rto_fires_at_the_earlier_deadline(self):
        top, snd, sink = make_sender()
        sink.port.handler = lambda seg: None
        fired = []
        on_rto = snd._on_rto
        snd._on_rto = lambda: (fired.append(top.net.sim.now), on_rto())
        snd.start()  # rto 1.0: tick posted for t = 1.0
        top.net.run(until=0.1)
        snd.rto = 0.2
        snd._arm_rto(restart=True)  # deadline 0.3, ahead of the tick
        top.net.run(until=1.2)
        # 0.3, then backoff 0.4 -> 0.7, then 0.8 -> 1.5; the superseded
        # tick at 1.0 falls through.
        assert fired == pytest.approx([0.3, 0.7])
        assert snd.stats.timeouts == 2
        assert len(rto_ticks(top, snd)) == 1


class TestAppLimited:
    def test_push_app_data_gates_sending(self):
        top, snd, sink = make_sender()
        snd.app_limited = True
        snd.start()
        top.net.run(until=0.5)
        assert snd.snd_nxt == 0  # nothing offered yet
        snd.push_app_data(5 * snd.config.payload_size)
        top.net.run(until=1.0)
        assert snd.snd_nxt == 5

    def test_partial_payload_waits_for_full_packet(self):
        top, snd, sink = make_sender()
        snd.push_app_data(snd.config.payload_size // 2)
        top.net.run(until=0.5)
        assert snd.snd_nxt == 0
        snd.push_app_data(snd.config.payload_size)
        top.net.run(until=1.0)
        assert snd.snd_nxt == 1


class TestSinkAcks:
    def test_ack_carries_rwnd(self):
        top = path_topology(10e6, 0.02)
        f = start_tcp_flow(top.net, top.src, top.dst, config=TcpConfig(rwnd_pkts=64))
        top.net.run(until=2.0)
        assert f.sender.rwnd <= 64

    def test_sack_blocks_capped(self):
        top, snd, sink = make_sender(max_sack_blocks=2)
        # create three separate holes at the sink
        for seq in (1, 3, 5):
            sink._on_data(TcpData(seq, 100))
        assert len(sink._sack_blocks()) <= 2

    def test_most_recent_block_first(self):
        top, snd, sink = make_sender()
        sink._on_data(TcpData(5, 100))
        sink._on_data(TcpData(2, 100))
        blocks = sink._sack_blocks()
        assert blocks[0] == (2, 2)  # the block containing the last arrival


    @settings(max_examples=150, deadline=None)
    @given(
        arrivals=st.lists(st.integers(0, 40), max_size=60),
        cap=st.integers(0, 4),
    )
    def test_sack_blocks_match_list_based_reference(self, arrivals, cap):
        top, snd, sink = make_sender(max_sack_blocks=cap)
        for seq in arrivals:
            sink._on_data(TcpData(seq, 100))
            expect = reference_sack_blocks(
                list(sink._ranges.ranges()), sink._last_arrival, cap
            )
            assert sink._sack_blocks() == expect


class TestPortPlumbing:
    def test_port_auto_allocation_and_close(self):
        top = path_topology(10e6, 0.02)
        p1 = _Port(top.src)
        p2 = _Port(top.src)
        assert p1.port != p2.port
        p1.close()
        p3 = _Port(top.src, p1.port)  # reusable after close
        assert p3.port == p1.port

    def test_done_sender_ignores_acks(self):
        top, snd, sink = make_sender()
        snd.done = True
        snd._on_ack(TcpAck(5, (), 100))
        assert snd.stats.acks_received == 0
