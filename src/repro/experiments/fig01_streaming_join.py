"""Figure 1 / §2.1 / §5.3 — the streaming-join motivating example.

Two record streams, A over a 100 ms path and B over a 1 ms path, joined
at C behind a shared 1 Gb/s bottleneck.  With TCP, RTT bias starves the
long stream and the join runs at ~2x the slow stream; with UDT both
streams converge to the fair share and the join approaches link speed
(§5.3 reports 600-800 Mb/s).
"""

from __future__ import annotations

from typing import Optional

from repro.apps.streaming_join import run_streaming_join
from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.sim.topology import join_topology
from repro.tcp import TcpFlow
from repro.udt.sim_adapter import UdtFlow


def run(
    rate_bps: float = 1e9,
    rtt_a: float = 0.100,
    rtt_b: float = 0.001,
    duration: Optional[float] = None,
    queue_pkts: int = 100,
    seed: int = 1,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(30.0, minimum=8.0)
    res = ExperimentResult(
        "fig01",
        "Streaming join: per-stream and join throughput (Mb/s)",
        [
            "transport",
            "stream A (100ms)",
            "stream B (1ms)",
            "join (measured)",
            "join bound 2x slower",
        ],
        paper_reference="Figure 1 + §2.1 (TCP: ~100/863, join ~2x slower stream); "
        "§5.3 (UDT join 600-800 Mb/s)",
        notes=f"rate={mbps(rate_bps):.0f} Mb/s, queue={queue_pkts} pkts, "
        f"duration={duration:.0f}s",
    )
    warm = min(duration / 3, 5.0)
    # Real-time sources at 45% of the link each: a fair transport carries
    # both (join ~= 0.9 x link); an RTT-biased one starves stream A.
    src_rate = 0.45 * rate_bps
    for name, factory in (
        (
            "TCP",
            lambda net, s, d, fid: TcpFlow(net, s, d, flow_id=fid),
        ),
        (
            "UDT",
            lambda net, s, d, fid: UdtFlow(net, s, d, flow_id=fid, app_driven=True),
        ),
    ):
        top = join_topology(
            rate_bps=rate_bps, rtt_a=rtt_a, rtt_b=rtt_b,
            queue_pkts=queue_pkts, seed=seed, **run_args.net,
        )
        join, fa, fb = run_streaming_join(
            top, factory, duration=duration, source_rate_bps=src_rate
        )
        ra = fa.throughput_bps(warm, duration)
        rb = fb.throughput_bps(warm, duration)
        join_bps = join.stats.joined_bytes(1456) * 8.0 / duration
        bound = 2.0 * min(ra, rb)
        res.add(name, mbps(ra), mbps(rb), mbps(join_bps), mbps(bound))
    res.notes += (
        f"; real-time sources at {mbps(src_rate):.0f} Mb/s each — the paper's "
        "bound: join <= 2 x slower stream"
    )
    return res
