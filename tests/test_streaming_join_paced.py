"""Tests for the paced real-time source used by the Figure 1 workload."""

import pytest

from repro.apps.streaming_join import PacedSource, run_streaming_join
from repro.sim.topology import join_topology, path_topology
from repro.tcp import TcpFlow
from repro.udt.sim_adapter import UdtFlow


def test_paced_udt_source_holds_rate():
    top = path_topology(100e6, 0.01)
    f = UdtFlow(top.net, top.src, top.dst, app_driven=True, flow_id="p")
    PacedSource(top.net, f, rate_bps=30e6)
    top.net.run(until=10.0)
    assert f.throughput_bps(3, 10) == pytest.approx(30e6, rel=0.1)


def test_paced_tcp_source_holds_rate():
    top = path_topology(100e6, 0.01)
    f = TcpFlow(top.net, top.src, top.dst, flow_id="p")
    PacedSource(top.net, f, rate_bps=30e6)
    top.net.run(until=10.0)
    assert f.throughput_bps(3, 10) == pytest.approx(30e6, rel=0.1)


def test_backlog_carries_over_when_transport_slower_than_source():
    # Source at 80 Mb/s into a 20 Mb/s path: transport caps throughput.
    top = path_topology(20e6, 0.01)
    f = UdtFlow(top.net, top.src, top.dst, app_driven=True, flow_id="p")
    PacedSource(top.net, f, rate_bps=80e6)
    top.net.run(until=10.0)
    thr = f.throughput_bps(3, 10)
    assert thr < 25e6
    assert thr > 15e6


def test_rejects_nonpositive_rate():
    top = path_topology(20e6, 0.01)
    f = UdtFlow(top.net, top.src, top.dst, app_driven=True)
    with pytest.raises(ValueError):
        PacedSource(top.net, f, rate_bps=0)


def test_join_with_paced_sources_balances():
    top = join_topology(rate_bps=60e6, rtt_a=0.02, rtt_b=0.002)
    join, fa, fb = run_streaming_join(
        top,
        lambda net, s, d, fid: UdtFlow(net, s, d, flow_id=fid, app_driven=True),
        duration=8.0,
        source_rate_bps=20e6,
    )
    # Both streams sustain the source rate; nearly everything joins.
    assert join.stats.joined > 0
    assert join.stats.expired < join.stats.joined * 0.2


@pytest.mark.parametrize(
    "make",
    [
        lambda top: UdtFlow(top.net, top.src, top.dst, nbytes=200_000, flow_id="t"),
        lambda top: TcpFlow(top.net, top.src, top.dst, nbytes=200_000, flow_id="t"),
    ],
    ids=["udt", "tcp"],
)
def test_delivery_taps_fire_after_the_flows_own_bookkeeping(make):
    """Both flow types expose the same two calls the apps use; a tap
    sees a delivery only once the flow's monitor accounting already
    includes it, and every tap gets every delivery."""
    top = path_topology(20e6, 0.01)
    f = make(top)
    seen, also = [], []
    f.add_delivery_tap(lambda n: seen.append((n, top.net.monitor.total_bytes["t"])))
    f.add_delivery_tap(also.append)
    top.net.run(until=5.0)
    assert sum(n for n, _ in seen) == f.delivered_bytes == 200_000
    running = 0
    for n, monitored in seen:
        running += n
        assert monitored == running
    assert also == [n for n, _ in seen]


def test_offer_returns_what_the_flow_accepted():
    top = path_topology(20e6, 0.01)
    tcp = TcpFlow(top.net, top.src, top.dst, flow_id="a")
    assert tcp.offer(10**9) == 10**9  # unbounded backlog
    udt = UdtFlow(top.net, top.src, top.dst, app_driven=True, flow_id="b")
    top.net.run(until=0.5)  # connected; the send buffer is bounded
    assert 0 < udt.offer(10**9) < 10**9
