"""§2.2 ablation — parallel TCP striping vs a single UDT flow.

Reproduces both published criticisms of the PSockets-style workaround:

* the N that recovers the bandwidth is scenario-dependent (needs tuning
  per path), while one UDT flow adapts automatically;
* striping is unfair: an N-striped transfer takes ~N shares from a
  competing standard TCP flow.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps.parallel_tcp import ParallelTcpTransfer
from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.sim.topology import dumbbell, flow_start, path_topology
from repro.tcp import start_tcp_flow
from repro.udt import UdtConfig, start_udt_flow

DEFAULT_STREAMS = (1, 4, 16)


def run(
    rate_bps: float = 622e6,
    rtt: float = 0.110,
    loss_rate: float = 1e-5,
    streams: Sequence[int] = DEFAULT_STREAMS,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(40.0, minimum=12.0)
    res = ExperimentResult(
        "ablation-parallel-tcp",
        "Parallel TCP striping vs one UDT flow",
        ["configuration", "goodput (Mb/s)", "competing TCP keeps (Mb/s)"],
        paper_reference="§2.2 (parallel TCP needs per-scenario tuning and "
        "is unfair to standard TCP)",
        notes=f"{mbps(rate_bps):.0f} Mb/s, {rtt*1e3:.0f} ms, link loss "
        f"{loss_rate:g}; competing flow measured on a shared bottleneck",
    )
    warm = duration / 2

    def coexistence(maker) -> float:
        """What a single standard TCP keeps next to the configuration."""
        d = dumbbell(2, rate_bps, rtt, seed=seed, **run_args.net)
        maker(d)
        # The striped transfer occupies the flow_start(0)-based slots;
        # its stream count is bounded by max(streams), so 64 clears them.
        comp = start_tcp_flow(
            d.net, d.sources[1], d.sinks[1], start=flow_start(64), flow_id="victim"
        )
        d.net.run(until=duration)
        return comp.throughput_bps(warm, duration)

    for n in streams:
        top = path_topology(
            rate_bps, rtt, loss_rate=loss_rate, seed=seed, **run_args.net
        )
        p = ParallelTcpTransfer(top.net, top.src, top.dst, n_streams=n)
        top.net.run(until=duration)
        solo = p.throughput_bps(warm, duration)
        kept = coexistence(
            lambda d, n=n: ParallelTcpTransfer(
                d.net, d.sources[0], d.sinks[0], n_streams=n
            )
        )
        res.add(f"parallel TCP x{n}", mbps(solo), mbps(kept))

    cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
    top = path_topology(
        rate_bps, rtt, loss_rate=loss_rate, seed=seed, **run_args.net
    )
    u = start_udt_flow(top.net, top.src, top.dst, config=cfg)
    top.net.run(until=duration)
    solo = u.throughput_bps(warm, duration)
    kept = coexistence(
        lambda d: start_udt_flow(d.net, d.sources[0], d.sinks[0], config=cfg)
    )
    res.add("UDT x1 (no tuning)", mbps(solo), mbps(kept))
    return res
