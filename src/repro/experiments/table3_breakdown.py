"""Table 3 — CPU utilisation ratio per protocol function.

Runs the Figure 14 workload and reports each cost category's share of
the endpoint's consumed cycles, next to the published shares.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, RunArgs
from repro.hostmodel import CpuMeter, UDT_RECEIVER_COSTS, UDT_SENDER_COSTS
from repro.hostmodel.cpu import UDT_RECEIVER_SHARES, UDT_SENDER_SHARES
from repro.sim.topology import path_topology
from repro.udt import UdtConfig
from repro.udt.sim_adapter import UdtFlow

#: (meter category, paper row, published share) — sending column.
SEND_ROWS = (
    ("udp_io", "UDP writing", UDT_SENDER_SHARES["udp_io"]),
    ("timing", "Timing", UDT_SENDER_SHARES["timing"]),
    ("codec", "Packing data", UDT_SENDER_SHARES["codec"]),
    ("ctrl", "Processing control packet", UDT_SENDER_SHARES["ctrl"]),
    ("app", "Application interaction", UDT_SENDER_SHARES["app"]),
    ("other", "Other", UDT_SENDER_SHARES["other"]),
)

RECV_ROWS = (
    ("udp_io", "UDP reading", UDT_RECEIVER_SHARES["udp_io"]),
    ("measurement", "Bandwidth/RTT/arrival measurement", UDT_RECEIVER_SHARES["measurement"]),
    ("codec", "Unpacking data", UDT_RECEIVER_SHARES["codec"]),
    ("loss", "Loss processing", UDT_RECEIVER_SHARES["loss"]),
    ("timing", "Timing", UDT_RECEIVER_SHARES["timing"]),
    ("other", "Other (+ACK generation)", UDT_RECEIVER_SHARES["other"]),
)


def run(
    rate_bps: float = 1e9,
    rtt: float = 0.001,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(15.0, minimum=5.0)
    top = path_topology(rate_bps, rtt, seed=seed, **run_args.net)
    clock = lambda: top.net.sim.now  # noqa: E731
    ms = CpuMeter(UDT_SENDER_COSTS, clock, bus=top.net.sim.bus)
    mr = CpuMeter(UDT_RECEIVER_COSTS, clock, bus=top.net.sim.bus)
    cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
    UdtFlow(top.net, top.src, top.dst, config=cfg, meter_snd=ms, meter_rcv=mr)
    top.net.run(until=duration)

    res = ExperimentResult(
        "table3",
        "CPU utilisation ratio of functions in UDT (%)",
        ["side", "function", "paper %", "measured %"],
        paper_reference="Table 3 (VTune profile on dual 2.4 GHz Xeon; "
        "memory copy inside UDP IO dominates)",
        notes="measured = share of modelled cycles at the Fig 14 workload",
    )
    snd_bd = ms.breakdown()
    rcv_bd = mr.breakdown()
    for cat, label, paper in SEND_ROWS:
        res.add("sending", label, paper, round(snd_bd.get(cat, 0.0) * 100, 1))
    for cat, label, paper in RECV_ROWS:
        measured = rcv_bd.get(cat, 0.0)
        if cat == "other":
            measured += rcv_bd.get("ctrl_send", 0.0)
        res.add("receiving", label, paper, round(measured * 100, 1))
    return res
