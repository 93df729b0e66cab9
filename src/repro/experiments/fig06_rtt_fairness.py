"""Figure 6 — RTT fairness of UDT.

Two concurrent UDT flows on the Figure 1 topology: flow 1 with a fixed
100 ms RTT, flow 2 with RTT swept 1-1000 ms.  The constant SYN control
interval makes throughput RTT-independent: the paper reports the ratio
within 10% of 1 across the whole sweep.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.experiments.common import ExperimentResult, RunArgs
from repro.metrics import rtt_fairness_ratio
from repro.sim.topology import join_topology
from repro.udt import UdtConfig
from repro.udt.cc import CongestionControl, UdtNativeCC
from repro.udt.sim_adapter import UdtFlow

DEFAULT_RTTS = (0.001, 0.01, 0.1, 0.5, 1.0)


def run(
    rate_bps: float = 100e6,
    ref_rtt: float = 0.100,
    rtts: Sequence[float] = DEFAULT_RTTS,
    duration: Optional[float] = None,
    seed: int = 0,
    cc_factory: Callable[[UdtConfig], CongestionControl] = UdtNativeCC,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(60.0, minimum=15.0)
    res = ExperimentResult(
        "fig06",
        "RTT fairness: throughput(variable-RTT flow) / throughput(100ms flow)",
        ["flow2 RTT (ms)", "ratio", "flow1 Mb/s", "flow2 Mb/s"],
        paper_reference="Figure 6 (ratio within 10% of 1.0 for 1-1000 ms)",
        notes=f"2 UDT flows, {rate_bps/1e6:.0f} Mb/s shared bottleneck, "
        f"{duration:.0f}s (paper runs at 1 Gb/s)",
    )
    for rtt in rtts:
        # Long-RTT flows need proportionally longer runs to converge:
        # the paper's claim is about steady state, not the ramp.
        dur = max(duration, rtt * 60.0)
        warm = dur / 2
        top = join_topology(
            rate_bps=rate_bps, rtt_a=ref_rtt, rtt_b=rtt, seed=seed, **run_args.net
        )
        f1 = UdtFlow(top.net, top.src_a, top.sink, flow_id="ref", cc_factory=cc_factory)
        f2 = UdtFlow(top.net, top.src_b, top.sink, flow_id="var", cc_factory=cc_factory)
        top.net.run(until=dur)
        t1 = f1.throughput_bps(warm, dur)
        t2 = f2.throughput_bps(warm, dur)
        res.add(rtt * 1e3, round(rtt_fairness_ratio(t2, t1), 3), t1 / 1e6, t2 / 1e6)
    return res
