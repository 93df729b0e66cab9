"""Figure 15 — UDT throughput vs packet size.

Single flow on a 1 Gb/s, 110 ms path whose MTU is 1500 bytes.  Small
packets waste capacity on headers and per-packet CPU; packets above the
MTU are IP-fragmented, so one lost fragment kills the whole packet
("segmentation collapse", §6).  The optimum sits exactly at MSS = MTU.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.sim.topology import flow_start, path_topology
from repro.udt import UdtConfig, start_udt_flow

DEFAULT_SIZES = (576, 1000, 1500, 2000, 3000, 6000)


def run(
    rate_bps: float = 1e9,
    rtt: float = 0.110,
    mtu: int = 1500,
    sizes: Sequence[int] = DEFAULT_SIZES,
    loss_rate: float = 1e-4,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(15.0, minimum=5.0)
    res = ExperimentResult(
        "fig15",
        "UDT throughput vs packet size (MTU 1500)",
        ["MSS (bytes)", "throughput (Mb/s)", "fragments/pkt"],
        paper_reference="Figure 15 (optimum at MSS = path MTU = 1500; "
        "collapse above)",
        notes=f"{mbps(rate_bps):.0f} Mb/s, {rtt*1e3:.0f} ms, per-fragment "
        f"loss {loss_rate:g}, duration {duration:.0f}s",
    )
    warm = duration / 3
    for mss in sizes:
        top = path_topology(
            rate_bps, rtt, mtu=mtu, loss_rate=loss_rate, seed=seed, **run_args.net
        )
        cfg = UdtConfig(mss=mss, rcv_buffer_pkts=40000, snd_buffer_pkts=40000)
        f = start_udt_flow(top.net, top.src, top.dst, config=cfg, start=flow_start(0))
        top.net.run(until=duration)
        frags = -(-mss // mtu)
        res.add(mss, mbps(f.throughput_bps(warm, duration)), frags)
    return res
