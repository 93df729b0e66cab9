"""Figure 11 — single-flow efficiency on the three testbed paths.

Chicago->Chicago (1 Gb/s, 0.04 ms), Chicago->Ottawa (OC-12 622 Mb/s,
16 ms), Chicago->Amsterdam (1 Gb/s, 110 ms).  UDT reaches ~940/580/940
Mb/s; tuned TCP manages only ~100-300 Mb/s on the long path.

The real testbeds carry occasional random loss (§2.2: "the existence of
random loss on the physical link ... prevent TCP from utilizing high
bandwidth with a single flow"); we model it with a small per-packet BER
loss — without it a clean simulated path lets even Reno eventually fill
the pipe, which is not what physical Gb/s WANs do.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.sim.topology import path_topology
from repro.tcp import start_tcp_flow
from repro.udt import UdtConfig, start_udt_flow

#: (name, rate, RTT) for the three §5 paths.
PATHS = (
    ("to Chicago (1G, 0.04ms)", 1e9, 0.00004),
    ("to Ottawa (OC-12, 16ms)", 622e6, 0.016),
    ("to Amsterdam (1G, 110ms)", 1e9, 0.110),
)

#: Residual random loss on the optical paths (per packet).
LINK_LOSS = 1e-5


def run(
    duration: Optional[float] = None,
    loss_rate: float = LINK_LOSS,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(60.0, minimum=18.0)
    res = ExperimentResult(
        "fig11",
        "Single-flow throughput per path (Mb/s)",
        ["path", "UDT", "TCP (tuned)"],
        paper_reference="Figure 11 (UDT 940/580/940; tuned TCP far below "
        "on the high-BDP path)",
        notes=f"duration {duration:.0f}s, link loss {loss_rate:g}/pkt "
        "(models residual physical-path loss)",
    )
    warm = duration / 2  # measure steady state, not the ramp
    for name, rate, rtt in PATHS:
        vals = {}
        for kind in ("udt", "tcp"):
            top = path_topology(
                rate, rtt, loss_rate=loss_rate, seed=seed, **run_args.net
            )
            if kind == "udt":
                cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
                f = start_udt_flow(top.net, top.src, top.dst, config=cfg)
            else:
                f = start_tcp_flow(top.net, top.src, top.dst)
            top.net.run(until=duration)
            vals[kind] = f.throughput_bps(warm, duration)
        res.add(name, mbps(vals["udt"]), mbps(vals["tcp"]))
    return res
