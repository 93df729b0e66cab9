"""Figure 7 — UDT throughput with and without flow control.

Single flow on a high-BDP path (paper: 1 Gb/s, 100 ms, queue = BDP) with
periodic competing bursts (the real networks of §5 are never perfectly
quiet).  With the dynamic window the rate curve stays smooth near link
speed and loss stays small; without it the sender keeps a queue's worth
of excess in flight, every burst triggers an avalanche of loss and the
delivered rate oscillates — §3.2's argument for the supportive window.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.bulk import UdpBlast
from repro.experiments.common import ExperimentResult, flow_start, mbps, scaled
from repro.sim.topology import bdp_packets, path_topology
from repro.sim.udp import UdpEndpoint
from repro.udt import UdtConfig, start_udt_flow


def run(
    rate_bps: float = 1e9,
    rtt: float = 0.100,
    duration: Optional[float] = None,
    sample_interval: float = 0.5,
    seed: int = 0,
) -> ExperimentResult:
    if duration is None:
        duration = scaled(30.0, minimum=10.0)
    res = ExperimentResult(
        "fig07",
        "UDT throughput over time, with vs without flow control (Mb/s)",
        ["time (s)", "with FC", "without FC"],
        paper_reference="Figure 7 (smooth near capacity with FC; deep "
        "oscillations without)",
        notes=f"{mbps(rate_bps):.0f} Mb/s, {rtt*1e3:.0f} ms, queue=BDP",
    )
    q = bdp_packets(rate_bps, rtt)
    series = {}
    stats = {}
    for label, fc in (("with", True), ("without", False)):
        top = path_topology(rate_bps, rtt, queue_pkts=q, seed=seed, cross_sources=1)
        cfg = UdtConfig(
            flow_control=fc,
            rcv_buffer_pkts=4 * q,
            snd_buffer_pkts=4 * q,
        )
        f = start_udt_flow(top.net, top.src, top.dst, config=cfg, start=flow_start(0))
        # Periodic competing burst at the bottleneck (staggered like any
        # other concurrent sender so its first packet never ties with a
        # flow event in virtual time).
        cross = [n for n in top.net.nodes.values() if n.name == "cross0"][0]
        sink_ep = UdpEndpoint(top.dst, 9999)
        UdpBlast(
            top.net, cross, sink_ep.address, rate_bps=rate_bps * 0.6,
            on_time=0.2, off_time=1.8, start=duration * 0.25 + flow_start(1),
        )
        top.net.run(until=duration)
        series[label] = f.series(sample_interval, 0, duration)
        stats[label] = f.sender.stats
    for (t, w), (_, wo) in zip(series["with"], series["without"]):
        res.add(t, mbps(w), mbps(wo))
    res.scalars = {
        f"retx_{k}_fc": v.retransmitted_pkts for k, v in stats.items()
    }
    res.notes += (
        f"; retransmissions with FC: {stats['with'].retransmitted_pkts}, "
        f"without FC: {stats['without'].retransmitted_pkts}"
    )
    return res
