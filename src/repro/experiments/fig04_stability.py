"""Figure 4 — stability index of UDT vs TCP against RTT (§3.6).

Same setup as Figure 2 (10 flows, 100 Mb/s, DropTail max(100, BDP)),
sampling each flow's throughput every second.  Paper shape: UDT is more
stable than TCP except in the mid-RTT band (~1-10 ms) where TCP's queue
happens to be ideally sized.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, scaled
from repro.metrics import stability_index
from repro.sim.topology import dumbbell, flow_start
from repro.tcp import start_tcp_flow
from repro.udt import start_udt_flow

DEFAULT_RTTS = (0.001, 0.01, 0.1, 0.5)


def run(
    n_flows: int = 10,
    rate_bps: float = 100e6,
    rtts: Sequence[float] = DEFAULT_RTTS,
    duration: Optional[float] = None,
    sample_interval: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    if duration is None:
        duration = scaled(100.0, minimum=20.0)
    res = ExperimentResult(
        "fig04",
        "Stability index vs RTT (lower is more stable)",
        ["RTT (ms)", "UDT", "TCP"],
        paper_reference="Figure 4 (UDT more stable except ~1-10 ms RTT)",
        notes=f"{n_flows} flows, {rate_bps/1e6:.0f} Mb/s, {duration:.0f}s, "
        f"{sample_interval:.0f}s samples",
    )
    warm = duration / 4
    for rtt in rtts:
        out = {}
        for kind, starter in (("udt", start_udt_flow), ("tcp", start_tcp_flow)):
            d = dumbbell(n_flows, rate_bps, rtt, seed=seed)
            flows = [
                # Staggered starts: t=0 handshake ties would make run
                # order depend on the engine tie-break (see
                # topology.flow_start / the determinism sanitizer).
                starter(
                    d.net,
                    d.sources[i],
                    d.sinks[i],
                    start=flow_start(i),
                    flow_id=f"f{i}",
                )
                for i in range(n_flows)
            ]
            for f in flows:
                f.record_arrivals()
            d.net.run(until=duration)
            # Sample sink *arrival* rate (NS-2 style): in-order goodput
            # stalls during hole repair and would conflate reordering
            # latency with instability.
            samples = d.net.monitor.sample_matrix(
                [f.arrival_flow_id for f in flows], sample_interval, warm, duration
            )
            out[kind] = stability_index(samples)
        res.add(rtt * 1e3, round(out["udt"], 4), round(out["tcp"], 4))
    return res
