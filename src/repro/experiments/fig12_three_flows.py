"""Figure 12 — three simultaneous UDT flows from one host.

Three flows leave Chicago simultaneously for a local machine, Ottawa and
Amsterdam, all squeezing through the source's 1 Gb/s egress.  UDT's
RTT-independent control gives each ~325 Mb/s; TCP on the same setup is
grossly skewed toward the short path (§5.1: 754 / 155 / 27).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.sim.topology import Network, flow_start, paper_queue_size
from repro.tcp import start_tcp_flow
from repro.udt import UdtConfig, start_udt_flow

#: (destination, path rate after egress, one-way delay)
DESTS = (
    ("Chicago", 1e9, 0.0002),
    ("Ottawa", 622e6, 0.008),
    ("Amsterdam", 1e9, 0.055),
)


def build_star(seed: int = 0, run_args: RunArgs = RunArgs()):
    """One source whose 1 Gb/s egress fans out to the three paths."""
    net = Network(seed=seed, **run_args.net)
    src = net.add_host("chicago-src")
    egress = net.add_router("egress")
    q = paper_queue_size(1e9, 0.110)
    net.add_link(src, egress, 1e9, 1e-6, queue_pkts=q)
    sinks = []
    for name, rate, delay in DESTS:
        d = net.add_host(f"sink-{name}")
        net.add_link(egress, d, rate, delay, queue_pkts=q)
        sinks.append(d)
    net.finalize()
    return net, src, sinks


def run(
    duration: Optional[float] = None, seed: int = 0, run_args: RunArgs = RunArgs()
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(20.0, minimum=6.0)
    res = ExperimentResult(
        "fig12",
        "Three concurrent flows sharing one 1 Gb/s egress (Mb/s)",
        ["destination", "UDT", "TCP"],
        paper_reference="Figure 12 (UDT: ~325 each; TCP: 754/155/27)",
        notes=f"duration {duration:.0f}s; egress is the shared bottleneck",
    )
    warm = duration / 3
    results = {}
    for kind in ("udt", "tcp"):
        net, src, sinks = build_star(seed=seed, run_args=run_args)
        flows = []
        for i, ((name, _, _), sink) in enumerate(zip(DESTS, sinks)):
            if kind == "udt":
                cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
                flows.append(
                    start_udt_flow(
                        net, src, sink, config=cfg,
                        start=flow_start(i), flow_id=f"u-{name}",
                    )
                )
            else:
                flows.append(
                    start_tcp_flow(
                        net, src, sink, start=flow_start(i), flow_id=f"t-{name}"
                    )
                )
        net.run(until=duration)
        results[kind] = [f.throughput_bps(warm, duration) for f in flows]
    for i, (name, _, _) in enumerate(DESTS):
        res.add(name, mbps(results["udt"][i]), mbps(results["tcp"][i]))
    return res
