"""§3.7 footnote ablation — queueing impacts TCP, barely touches UDT.

"TCP's performance can be heavily affected by queuing, which, however,
have little impact on UDT's rate control."  We sweep the bottleneck
DropTail queue size (as a fraction of the BDP) and also swap in RED, and
compare each protocol's single-flow throughput.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.sim.queues import REDQueue
from repro.sim.topology import Network, bdp_packets
from repro.tcp import start_tcp_flow
from repro.udt import UdtConfig, start_udt_flow

DEFAULT_FRACTIONS = (0.05, 0.25, 1.0)


def _path(rate_bps, rtt, queue_pkts=None, red=False, seed=0, run_args=RunArgs()):
    net = Network(seed=seed, **run_args.net)
    src = net.add_host("src")
    dst = net.add_host("dst")
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    big = max(queue_pkts or 100, 1000)
    net.add_link(src, r1, rate_bps * 10, 1e-6, queue_pkts=big)
    if red:
        qf = lambda: REDQueue(queue_pkts, rng=random.Random(seed))  # noqa: E731
        net.add_link(r1, r2, rate_bps, rtt / 2, queue_factory=qf)
    else:
        net.add_link(r1, r2, rate_bps, rtt / 2, queue_pkts=queue_pkts)
    net.add_link(r2, dst, rate_bps * 10, 1e-6, queue_pkts=big)
    net.finalize()
    return net, src, dst


def run(
    rate_bps: float = 200e6,
    rtt: float = 0.1,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(40.0, minimum=12.0)
    res = ExperimentResult(
        "ablation-queueing",
        "Single-flow throughput vs bottleneck queue provisioning",
        ["queue", "UDT (Mb/s)", "TCP (Mb/s)"],
        paper_reference="§3.7 footnote (queueing heavily affects TCP, "
        "little impact on UDT's rate control)",
        notes=f"{mbps(rate_bps):.0f} Mb/s, {rtt*1e3:.0f} ms",
    )
    warm = duration / 2
    bdp = bdp_packets(rate_bps, rtt)
    cases = [(f"DropTail {f:.2f}xBDP", max(int(bdp * f), 4), False) for f in fractions]
    cases.append(("RED 0.5xBDP", max(bdp // 2, 8), True))
    cfg = UdtConfig(rcv_buffer_pkts=4 * bdp, snd_buffer_pkts=4 * bdp)
    for label, q, red in cases:
        vals = {}
        for kind in ("udt", "tcp"):
            net, src, dst = _path(
                rate_bps, rtt, queue_pkts=q, red=red, seed=seed, run_args=run_args
            )
            if kind == "udt":
                f = start_udt_flow(net, src, dst, config=cfg)
            else:
                f = start_tcp_flow(net, src, dst)
            net.run(until=duration)
            vals[kind] = f.throughput_bps(warm, duration)
        res.add(label, mbps(vals["udt"]), mbps(vals["tcp"]))
    return res
