"""Unit tests for the UDP service and the flow monitor."""

import pytest

from repro.sim.monitor import FlowMonitor
from repro.sim.engine import Simulator
from repro.sim.packet import IP_UDP_HEADER
from repro.sim.topology import path_topology
from repro.sim.udp import UdpEndpoint


def make_pair(rate=10e6, rtt=0.02):
    top = path_topology(rate_bps=rate, rtt=rtt)
    a = UdpEndpoint(top.src, 5000)
    b = UdpEndpoint(top.dst, 6000)
    return top.net, a, b


class TestUdp:
    def test_payload_and_size_delivered(self):
        net, a, b = make_pair()
        got = []
        b.on_receive(lambda p, addr, size: got.append((p, addr, size)))
        a.sendto({"k": 1}, 100, b.address)
        net.run(until=1)
        assert got == [({"k": 1}, a.address, 100)]

    def test_header_overhead_on_wire(self):
        net, a, b = make_pair()
        a.sendto(None, 1000, b.address)
        assert a.bytes_sent == 1000 + IP_UDP_HEADER

    def test_no_reliability_on_overflow(self):
        # Tiny bottleneck queue: most datagrams vanish, none retried.
        top = path_topology(rate_bps=1e6, rtt=0.02, queue_pkts=2)
        a = UdpEndpoint(top.src, 1)
        b = UdpEndpoint(top.dst, 2)
        got = []
        b.on_receive(lambda p, addr, size: got.append(p))
        for i in range(50):
            a.sendto(i, 1000, b.address)
        top.net.run(until=5)
        assert 0 < len(got) < 50

    def test_auto_port_allocation(self):
        net, a, b = make_pair()
        c = UdpEndpoint(b.host)
        assert c.port != b.port

    def test_closed_endpoint_raises(self):
        net, a, b = make_pair()
        a.close()
        with pytest.raises(RuntimeError):
            a.sendto(None, 10, b.address)

    def test_close_unbinds_port(self):
        net, a, b = make_pair()
        port = a.port
        a.close()
        UdpEndpoint(a.host, port)  # port reusable


class TestConnectedUdp:
    def test_send_reaches_the_connected_peer(self):
        net, a, b = make_pair()
        got = []
        b.on_receive(lambda p, addr, size: got.append((p, addr, size)))
        a.connect(b.address, flow="f")
        assert a.send({"k": 1}, 100)
        net.run(until=1)
        assert got == [({"k": 1}, a.address, 100)]
        assert (a.bytes_sent, a.datagrams_sent) == (100 + IP_UDP_HEADER, 1)

    def test_packets_carry_the_flow_id_and_share_a_full_size_wire_int(self):
        net, a, b = make_pair()
        got = []
        b.host.bind(7000, got.append)  # the raw packets, not their payloads
        a.connect((b.host.id, 7000), flow="f")
        for size in (1456, 1456, 16, 1456):
            a.send(None, size)
        net.run(until=1)
        assert [(p.size, p.flow) for p in got] == [
            (1484, "f"), (1484, "f"), (16 + IP_UDP_HEADER, "f"), (1484, "f")
        ]
        # 1 484 is no cached small int: two sums would be two objects.
        assert got[0].size is got[1].size

    def test_send_needs_a_connection_and_an_open_endpoint(self):
        net, a, b = make_pair()
        with pytest.raises(RuntimeError, match="not connected"):
            a.send(None, 10)
        a.connect(b.address)
        a.close()
        with pytest.raises(RuntimeError, match="closed"):
            a.send(None, 10)
        with pytest.raises(RuntimeError, match="closed"):
            a.connect(b.address)


class TestFlowMonitor:
    def test_total_and_average(self):
        sim = Simulator()
        mon = FlowMonitor(sim, bin_width=0.1)
        for i in range(10):
            sim.schedule(i * 0.1, mon.on_deliver, "f", 1000)
        sim.run(until=1.0)
        assert mon.total_bytes["f"] == 10_000
        assert mon.throughput_bps("f", 0, 1.0) == pytest.approx(80_000)

    def test_series_resolution(self):
        sim = Simulator()
        mon = FlowMonitor(sim, bin_width=0.1)
        sim.schedule(0.05, mon.on_deliver, "f", 500)
        sim.schedule(0.95, mon.on_deliver, "f", 1500)
        sim.run(until=1.0)
        series = mon.series("f", 0.5, 0, 1.0)
        assert len(series) == 2
        assert series[0][1] == pytest.approx(500 * 8 / 0.5)
        assert series[1][1] == pytest.approx(1500 * 8 / 0.5)

    def test_series_requires_multiple_of_bin(self):
        sim = Simulator()
        mon = FlowMonitor(sim, bin_width=0.1)
        with pytest.raises(ValueError):
            mon.series("f", 0.25)

    def test_unknown_flow_zero(self):
        sim = Simulator()
        mon = FlowMonitor(sim)
        assert mon.throughput_bps("nope", 0, 1) == 0.0

    def test_sample_matrix_shape(self):
        sim = Simulator()
        mon = FlowMonitor(sim, bin_width=0.1)
        for f in ("a", "b"):
            for i in range(20):
                sim.schedule(i * 0.1 + 0.01, mon.on_deliver, f, 100)
        sim.run(until=2.0)
        m = mon.sample_matrix(["a", "b"], 1.0, 0.0, 2.0)
        assert len(m) == 2 and len(m[0]) == 2


class TestFlowMonitorBinBoundaries:
    """The explicit partial-bin rule: a bin counts iff it overlaps
    [t0, t1), with 1e-9 snap to bin edges (no float-rounding flips)."""

    def _mon(self):
        sim = Simulator()
        mon = FlowMonitor(sim, bin_width=0.1)
        # one 1000-byte delivery in the middle of each of bins 0..9
        for i in range(10):
            sim.schedule(i * 0.1 + 0.05, mon.on_deliver, "f", 1000)
        sim.run(until=1.0)
        return mon

    def test_t1_on_boundary_excludes_next_bin(self):
        mon = self._mon()
        # [0, 0.9): bins 0..8 only, regardless of float noise in 0.9/0.1
        assert mon.throughput_bps("f", 0.0, 0.9) == pytest.approx(9000 * 8 / 0.9)

    def test_t1_with_float_noise_is_stable(self):
        mon = self._mon()
        # 0.9000000000001 and 0.8999999999999 are the "same" boundary
        hi = mon.throughput_bps("f", 0.0, 0.9 + 1e-13)
        lo = mon.throughput_bps("f", 0.0, 0.9 - 1e-13)
        assert hi == pytest.approx(lo, rel=1e-6)
        # and the classic accumulated-float case: 9 * 0.1 != 0.9 exactly
        acc = sum([0.1] * 9)
        assert mon.throughput_bps("f", 0.0, acc) == pytest.approx(
            9000 * 8 / acc, rel=1e-6
        )

    def test_final_partial_bin_included(self):
        mon = self._mon()
        # [0, 0.95): bin 9 overlaps the interval, so its bytes count
        assert mon.throughput_bps("f", 0.0, 0.95) == pytest.approx(
            10_000 * 8 / 0.95
        )

    def test_first_partial_bin_included(self):
        mon = self._mon()
        # [0.85, 1.0): bins 8 and 9 overlap
        assert mon.throughput_bps("f", 0.85, 1.0) == pytest.approx(
            2000 * 8 / 0.15
        )

    def test_degenerate_interval_inside_one_bin(self):
        mon = self._mon()
        # interval entirely inside bin 3: that bin's bytes, short window
        assert mon.throughput_bps("f", 0.32, 0.38) == pytest.approx(
            1000 * 8 / 0.06
        )


class TestArrivalBins:
    """Only a flow that records arrivals books the sink-arrival series."""

    @staticmethod
    def _flow(kind, record):
        from repro.tcp import start_tcp_flow
        from repro.udt import start_udt_flow

        top = path_topology(rate_bps=20e6, rtt=0.02, loss_rate=0.002, seed=3)
        start = start_udt_flow if kind == "udt" else start_tcp_flow
        f = start(top.net, top.src, top.dst)
        if record:
            f.record_arrivals()
        top.net.run(until=2.0)
        return top.net, f

    @pytest.mark.parametrize("kind", ["udt", "tcp"])
    def test_arrival_flow_id_raises_unless_recorded(self, kind):
        net, f = self._flow(kind, record=False)
        with pytest.raises(RuntimeError, match="record_arrivals"):
            f.arrival_flow_id
        assert list(net.monitor.total_bytes) == [f.flow_id]

    @pytest.mark.parametrize("kind", ["udt", "tcp"])
    def test_recording_arrivals_moves_nothing_else(self, kind):
        net0, f0 = self._flow(kind, record=False)
        net1, f1 = self._flow(kind, record=True)
        assert net1.sim.events_processed == net0.sim.events_processed
        assert f1.delivered_bytes == f0.delivered_bytes > 0
        totals = net1.monitor.total_bytes
        assert totals[f1.flow_id] == net0.monitor.total_bytes[f0.flow_id]
        # arrivals also count what waited out of order behind a loss
        assert totals[f1.arrival_flow_id] >= totals[f1.flow_id]

    def test_reduced_fig04_rows_are_unchanged(self):
        from repro.experiments import fig04_stability

        res = fig04_stability.run(duration=4, rtts=(0.02,), n_flows=2)
        # Captured on commit 977413f, where every flow booked arrivals.
        assert res.rows == [(20.0, 0.0169, 0.1771)]
