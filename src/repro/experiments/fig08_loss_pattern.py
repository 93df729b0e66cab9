"""Figure 8 — loss pattern during heavy congestion.

A UDT flow fills a high-BDP link; a bursting UDP blast is injected at the
bottleneck.  The receiver's loss events (contiguous holes) reach thousands
of packets each — the justification for range-compressed loss storage
(§4.2: "each loss event contains up to 3000+ lost packets").
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.bulk import UdpBlast
from repro.experiments.common import ExperimentResult, RunArgs
from repro.sim.topology import flow_start, path_topology
from repro.sim.udp import UdpEndpoint
from repro.udt import UdtConfig, start_udt_flow


def collect_loss_events(
    rate_bps: float = 1e9,
    rtt: float = 0.100,
    duration: Optional[float] = None,
    blast_fraction: float = 9.5,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> List[int]:
    """Run the experiment and return per-event lost-packet counts."""
    if duration is None:
        duration = run_args.scaled(30.0, minimum=12.0)
    top = path_topology(rate_bps, rtt, seed=seed, cross_sources=1, **run_args.net)
    cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
    f = start_udt_flow(top.net, top.src, top.dst, config=cfg, start=flow_start(0))
    # Bursting UDP cross traffic straight into the bottleneck queue.
    cross = [n for n in top.net.nodes.values() if n.name == "cross0"][0]
    sink_ep = UdpEndpoint(top.dst, 9999)
    # The blast exceeds the link rate: while it is ON the queue holds
    # almost only blast packets and every UDT packet in that window is
    # lost — one multi-thousand-packet loss event per burst (Figure 8's
    # pattern).
    UdpBlast(
        top.net,
        cross,
        sink_ep.address,
        rate_bps=rate_bps * blast_fraction,
        on_time=0.10,
        off_time=0.90,
        start=duration * 0.2 + flow_start(1),
    )
    top.net.run(until=duration)
    return list(f.receiver.loss_events)


def run(
    rate_bps: float = 1e9,
    rtt: float = 0.100,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    events = collect_loss_events(rate_bps, rtt, duration, seed=seed, run_args=run_args)
    res = ExperimentResult(
        "fig08",
        "Lost packets per loss event during heavy congestion",
        ["loss event #", "lost packets"],
        paper_reference="Figure 8 (events of up to 3000+ packets on a "
        "1 Gb/s, 100 ms link under a bursting UDP flow)",
    )
    for i, n in enumerate(events):
        res.add(i, n)
    big = max(events) if events else 0
    res.notes = (
        f"{len(events)} loss events, largest {big} packets, "
        f"mean {sum(events)/len(events):.1f}" if events else "no loss recorded"
    )
    return res
