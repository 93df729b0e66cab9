"""Figure 2 — Jain's fairness index of UDT vs TCP against RTT.

10 concurrent flows on a 100 Mb/s DropTail link (queue = max(100, BDP)).
The paper's result: UDT stays near 1.0 across the whole RTT range, TCP's
index decays as RTT grows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, RunArgs
from repro.metrics import jain_index
from repro.sim.topology import dumbbell, flow_start
from repro.tcp import start_tcp_flow
from repro.udt import start_udt_flow

DEFAULT_RTTS = (0.001, 0.01, 0.1, 0.5)


def _run_flows(
    kind: str, n: int, rate: float, rtt: float, duration: float, seed: int,
    run_args: RunArgs = RunArgs(),
):
    d = dumbbell(n, rate, rtt, seed=seed, **run_args.net)
    flows = []
    for i in range(n):
        # Staggered, not simultaneous: t=0 handshake ties would make run
        # order depend on the engine tie-break (determinism sanitizer).
        start = flow_start(i)
        if kind == "udt":
            f = start_udt_flow(
                d.net, d.sources[i], d.sinks[i], start=start, flow_id=f"f{i}"
            )
        else:
            f = start_tcp_flow(
                d.net, d.sources[i], d.sinks[i], start=start, flow_id=f"f{i}"
            )
        flows.append(f)
    d.net.run(until=duration)
    return d, flows


def run(
    n_flows: int = 10,
    rate_bps: float = 100e6,
    rtts: Sequence[float] = DEFAULT_RTTS,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(100.0, minimum=20.0)
    res = ExperimentResult(
        "fig02",
        "Jain's fairness index vs RTT",
        ["RTT (ms)", "UDT", "TCP"],
        paper_reference="Figure 2 (UDT ~1.0 across RTTs; TCP decays with RTT)",
        notes=f"{n_flows} flows, {rate_bps/1e6:.0f} Mb/s, {duration:.0f}s, "
        "DropTail q=max(100,BDP)",
    )
    warm = duration / 4
    for rtt in rtts:
        indices = {}
        for kind in ("udt", "tcp"):
            d, flows = _run_flows(
                kind, n_flows, rate_bps, rtt, duration, seed, run_args
            )
            thr = [f.throughput_bps(warm, duration) for f in flows]
            indices[kind] = jain_index(thr)
        res.add(rtt * 1e3, round(indices["udt"], 4), round(indices["tcp"], 4))
    return res
