"""Integration tests: TCP flows over the simulated network."""

import pytest

from repro.experiments.common import flow_start
from repro.sim.topology import dumbbell, path_topology
from repro.tcp import (
    BicResponse,
    HighSpeedResponse,
    ScalableResponse,
    TcpConfig,
    VegasResponse,
    WestwoodResponse,
    start_tcp_flow,
)


def test_fills_low_bdp_link():
    top = path_topology(10e6, 0.02)
    f = start_tcp_flow(top.net, top.src, top.dst)
    top.net.run(until=10.0)
    assert f.throughput_bps(3, 10) > 9e6


def test_finite_transfer_exact_and_done():
    top = path_topology(10e6, 0.02)
    f = start_tcp_flow(top.net, top.src, top.dst, nbytes=300_000)
    top.net.run(until=10.0)
    assert f.done
    assert f.delivered_bytes == 300_000
    assert f.sink.fin_seen


def test_recovers_from_random_loss_exactly():
    top = path_topology(10e6, 0.02, loss_rate=0.002)
    f = start_tcp_flow(top.net, top.src, top.dst, nbytes=1_000_000)
    top.net.run(until=60.0)
    assert f.done
    assert f.delivered_bytes == 1_000_000
    assert f.sender.stats.retransmits > 0


def test_congestion_halves_window():
    top = path_topology(10e6, 0.02, queue_pkts=20)
    f = start_tcp_flow(top.net, top.src, top.dst)
    top.net.run(until=10.0)
    s = f.sender.stats
    assert s.fast_recoveries > 0
    # sustained operation despite drops
    assert f.throughput_bps(5, 10) > 7e6


def test_two_flows_share_link():
    d = dumbbell(2, 20e6, 0.02)
    f1 = start_tcp_flow(d.net, d.sources[0], d.sinks[0])
    f2 = start_tcp_flow(d.net, d.sources[1], d.sinks[1], start=1.0)
    d.net.run(until=30.0)
    t1, t2 = f1.throughput_bps(15, 30), f2.throughput_bps(15, 30)
    assert t1 + t2 > 17e6
    assert min(t1, t2) / max(t1, t2) > 0.4


def test_rtt_bias_short_beats_long():
    """§2.2: concurrent TCP flows with different RTTs — RTT bias."""
    from repro.sim.topology import join_topology
    from repro.tcp import TcpFlow

    # A modest queue keeps queueing delay from equalising the RTTs.
    j = join_topology(rate_bps=100e6, rtt_a=0.1, rtt_b=0.01, queue_pkts=100)
    fa = TcpFlow(j.net, j.src_a, j.sink, flow_id="long")
    fb = TcpFlow(j.net, j.src_b, j.sink, flow_id="short")
    j.net.run(until=30.0)
    assert fb.throughput_bps(10, 30) > 2.0 * fa.throughput_bps(10, 30)


def test_rwnd_limits_flight():
    cfg = TcpConfig(rwnd_pkts=16)
    top = path_topology(100e6, 0.1)
    f = start_tcp_flow(top.net, top.src, top.dst, config=cfg)
    top.net.run(until=5.0)
    assert f.sender.snd_nxt - f.sender.snd_una <= 16
    assert f.throughput_bps(2, 5) < 5e6


def test_rto_recovers_tail_loss():
    # Lossy enough that the final segments may need timeouts.
    top = path_topology(5e6, 0.05, loss_rate=0.02)
    f = start_tcp_flow(top.net, top.src, top.dst, nbytes=200_000)
    top.net.run(until=120.0)
    assert f.done
    assert f.delivered_bytes == 200_000


@pytest.mark.parametrize(
    "response_cls",
    [HighSpeedResponse, ScalableResponse, BicResponse, VegasResponse, WestwoodResponse],
)
def test_variants_fill_link(response_cls):
    top = path_topology(50e6, 0.02)
    f = start_tcp_flow(top.net, top.src, top.dst, response=response_cls())
    top.net.run(until=15.0)
    assert f.throughput_bps(8, 15) > 35e6


def test_highspeed_ramps_faster_than_reno_at_high_bdp():
    """The §5.2 claim: HighSpeed probes available bandwidth faster."""

    def run(response):
        top = path_topology(622e6, 0.016, loss_rate=1e-5)
        f = start_tcp_flow(top.net, top.src, top.dst, response=response)
        top.net.run(until=15.0)
        return f.throughput_bps(5, 15)

    assert run(HighSpeedResponse()) > run(None)  # None -> Reno


# Per flow: (delivered_bytes, segs_sent, retransmits, timeouts,
# fast_recoveries, acks_received, round(cwnd, 9)), captured from the
# scan-based scoreboard and the cancel-and-reschedule RTO timer before
# they were replaced.  The bookkeeping is an implementation detail; the
# protocol's every decision must not move.
GOLDEN_RUNS = {
    # (n_flows, rate_bps, rtt, loss_rate, virtual seconds)
    (4, 100e6, 0.05, 1e-3, 6.0): [
        (8155560, 5768, 180, 0, 8, 5541, 40.507255404),
        (7894220, 5437, 7, 0, 5, 5376, 51.004172246),
        (13175040, 9349, 325, 0, 6, 8957, 60.450303047),
        (12120920, 8638, 262, 0, 5, 8271, 95.444735376),
    ],
    # heavy random loss: 17 retransmission timeouts
    (3, 50e6, 0.1, 2e-2, 10.0): [
        (1908220, 1377, 61, 6, 19, 1318, 8.855359529),
        (1562200, 1124, 44, 4, 15, 1065, 9.937669327),
        (1419120, 1031, 47, 7, 17, 974, 11.680951745),
    ],
    # congestion loss only
    (8, 200e6, 0.02, 0.0, 4.0): [
        (12347220, 8646, 135, 0, 5, 8457, 53.44636587),
        (13052400, 9108, 133, 0, 4, 8886, 88.738944059),
        (12834860, 8889, 98, 0, 4, 8721, 69.474546468),
        (9027180, 6259, 70, 0, 5, 6140, 48.462847876),
        (8970240, 6263, 70, 0, 5, 6144, 48.407299532),
        (14315300, 9951, 72, 0, 3, 9805, 73.686733552),
        (15852680, 10993, 70, 0, 3, 10858, 64.887754713),
        (8958560, 6254, 70, 0, 5, 6136, 47.512039691),
    ],
}


@pytest.mark.parametrize("scenario", GOLDEN_RUNS, ids=lambda s: f"{s[0]}flows-p{s[3]}")
def test_golden_per_flow_behaviour(scenario):
    n, rate, rtt, loss_rate, duration = scenario
    top = dumbbell(n, rate, rtt, seed=3, loss_rate=loss_rate)
    flows = [
        start_tcp_flow(top.net, top.sources[i], top.sinks[i], start=flow_start(i))
        for i in range(n)
    ]
    top.net.run(until=duration)
    got = []
    for f in flows:
        st = f.sender.stats
        got.append((
            f.delivered_bytes, st.segs_sent, st.retransmits, st.timeouts,
            st.fast_recoveries, st.acks_received, round(f.sender.cwnd, 9),
        ))
    assert got == GOLDEN_RUNS[scenario]
