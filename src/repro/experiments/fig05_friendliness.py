"""Figure 5 — TCP friendliness index vs RTT (§3.7).

m UDT flows and n TCP flows share a 100 Mb/s link; a control run starts
m+n TCP flows instead.  T = (aggregate TCP with UDT present) / (TCP's
n/(m+n) fair share from the control).  Paper shape: T stays above ~0.2
even at very long RTTs and approaches/exceeds 1 at short RTTs where TCP
is the more aggressive protocol.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, RunArgs
from repro.metrics import friendliness_index
from repro.sim.topology import dumbbell, flow_start
from repro.tcp import start_tcp_flow
from repro.udt import start_udt_flow

DEFAULT_RTTS = (0.001, 0.01, 0.1, 0.5)


def run(
    n_udt: int = 5,
    n_tcp: int = 10,
    rate_bps: float = 100e6,
    rtts: Sequence[float] = DEFAULT_RTTS,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(100.0, minimum=20.0)
    res = ExperimentResult(
        "fig05",
        "TCP friendliness index vs RTT (1 = ideal, <1 = UDT overruns TCP)",
        ["RTT (ms)", "T index", "TCP Mb/s (w/ UDT)", "TCP fair share Mb/s"],
        paper_reference="Figure 5 (5 UDT + 10 TCP; TCP keeps >20% of fair "
        "share even at 1000 ms)",
        notes=f"{n_udt} UDT + {n_tcp} TCP on {rate_bps/1e6:.0f} Mb/s, "
        f"{duration:.0f}s",
    )
    warm = duration / 4
    total = n_udt + n_tcp
    for rtt in rtts:
        # mixed run
        d = dumbbell(total, rate_bps, rtt, seed=seed, **run_args.net)
        tcp_flows = []
        for i in range(n_udt):
            start_udt_flow(
                d.net, d.sources[i], d.sinks[i],
                start=flow_start(i), flow_id=f"u{i}",
            )
        for i in range(n_udt, total):
            tcp_flows.append(
                start_tcp_flow(
                    d.net, d.sources[i], d.sinks[i],
                    start=flow_start(i), flow_id=f"t{i}",
                )
            )
        d.net.run(until=duration)
        with_udt = [f.throughput_bps(warm, duration) for f in tcp_flows]

        # all-TCP control
        c = dumbbell(total, rate_bps, rtt, seed=seed + 1, **run_args.net)
        control = [
            start_tcp_flow(
                c.net, c.sources[i], c.sinks[i],
                start=flow_start(i), flow_id=f"c{i}",
            )
            for i in range(total)
        ]
        c.net.run(until=duration)
        alone = [f.throughput_bps(warm, duration) for f in control]

        t = friendliness_index(with_udt, alone, n_udt)
        fair = sum(alone) * (n_tcp / total)
        res.add(rtt * 1e3, round(t, 3), sum(with_udt) / 1e6, fair / 1e6)
    return res
