"""Figure 14 — CPU utilisation of UDT vs TCP at ~970 Mb/s.

The protocol endpoints run with host CPU meters attached; utilisation is
re-derived from the packets/bytes the flow actually moved through the
calibrated cost model (see repro.hostmodel.cpu).  Paper: UDT ~43%
sending / ~52% receiving, TCP ~33% / ~35%.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, mbps, scaled
from repro.hostmodel import (
    CpuMeter,
    TCP_RECEIVER_COSTS,
    TCP_SENDER_COSTS,
    UDT_RECEIVER_COSTS,
    UDT_SENDER_COSTS,
)
from repro.sim.topology import path_topology
from repro.tcp import TcpFlow
from repro.udt import UdtConfig
from repro.udt.sim_adapter import UdtFlow


def run(
    rate_bps: float = 1e9,
    rtt: float = 0.001,
    duration: Optional[float] = None,
    seed: int = 0,
) -> ExperimentResult:
    if duration is None:
        duration = scaled(15.0, minimum=5.0)
    res = ExperimentResult(
        "fig14",
        "CPU utilisation for memory-memory transfer (%)",
        ["protocol", "throughput (Mb/s)", "sending CPU %", "receiving CPU %"],
        paper_reference="Figure 14 (UDT 43/52, TCP 33/35 at ~970 Mb/s on "
        "dual 2.4 GHz Xeons)",
        notes=f"duration {duration:.0f}s on a clean {mbps(rate_bps):.0f} Mb/s path",
    )
    warm = duration / 3

    # UDT
    top = path_topology(rate_bps, rtt, seed=seed)
    clock = lambda: top.net.sim.now  # noqa: E731
    ms = CpuMeter(UDT_SENDER_COSTS, clock, bus=top.net.sim.bus)
    mr = CpuMeter(UDT_RECEIVER_COSTS, clock, bus=top.net.sim.bus)
    cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
    f = UdtFlow(top.net, top.src, top.dst, config=cfg, meter_snd=ms, meter_rcv=mr)
    top.net.run(until=duration)
    res.add(
        "UDT",
        mbps(f.throughput_bps(warm, duration)),
        round(ms.utilization() * 100, 1),
        round(mr.utilization() * 100, 1),
    )
    udt_meters = (ms, mr)

    # TCP
    top2 = path_topology(rate_bps, rtt, seed=seed)
    clock2 = lambda: top2.net.sim.now  # noqa: E731
    ts = CpuMeter(TCP_SENDER_COSTS, clock2, bus=top2.net.sim.bus)
    tr = CpuMeter(TCP_RECEIVER_COSTS, clock2, bus=top2.net.sim.bus)
    f2 = TcpFlow(top2.net, top2.src, top2.dst, meter_snd=ts, meter_rcv=tr)
    top2.net.run(until=duration)
    res.add(
        "TCP",
        mbps(f2.throughput_bps(warm, duration)),
        round(ts.utilization() * 100, 1),
        round(tr.utilization() * 100, 1),
    )
    res.meters = {"udt": udt_meters, "tcp": (ts, tr)}  # for table3 reuse
    return res
