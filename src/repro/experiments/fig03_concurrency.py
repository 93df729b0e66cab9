"""Figure 3 — UDT performance vs number of concurrent flows.

Multiplexed UDT flows on one bottleneck: aggregate utilisation stays high
but the standard deviation of per-flow throughput grows with concurrency
(the §3.6 point that UDT targets low-concurrency bulk networks).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.sim.topology import dumbbell, flow_start
from repro.udt import start_udt_flow

DEFAULT_COUNTS = (2, 8, 32, 96)
DEFAULT_RTTS = (0.0001, 0.001, 0.1)


def run(
    rate_bps: float = 100e6,
    counts: Sequence[int] = DEFAULT_COUNTS,
    rtts: Sequence[float] = DEFAULT_RTTS,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(60.0, minimum=15.0)
    res = ExperimentResult(
        "fig03",
        "Per-flow throughput stddev and aggregate utilisation vs #flows",
        ["flows", "RTT (ms)", "stddev (Mb/s)", "aggregate (Mb/s)"],
        paper_reference="Figure 3 (oscillation grows with concurrency; "
        "utilisation stays high)",
        notes=f"link {mbps(rate_bps):.0f} Mb/s, duration {duration:.0f}s "
        "(paper: 1 Gb/s, up to 400 flows — rate scaled for CPython)",
    )
    warm = duration / 3
    for rtt in rtts:
        for n in counts:
            d = dumbbell(n, rate_bps, rtt, seed=seed, **run_args.net)
            flows = [
                start_udt_flow(
                    d.net, d.sources[i], d.sinks[i],
                    start=flow_start(i), flow_id=f"f{i}",
                )
                for i in range(n)
            ]
            d.net.run(until=duration)
            thr = [f.throughput_bps(warm, duration) for f in flows]
            mean = sum(thr) / n
            std = math.sqrt(sum((t - mean) ** 2 for t in thr) / n)
            res.add(n, rtt * 1e3, mbps(std), mbps(sum(thr)))
    return res
