"""Figure 13 — aggregate throughput of short TCP transfers vs background
UDT flows.

A train of short (1 MB) TCP transfers runs from Chicago to Amsterdam
while 0..N bulk UDT flows occupy the same path.  The paper's point: the
aggregate short-TCP throughput decays *gently* (690 -> 480 Mb/s from 0 to
10 UDT flows) because UDT yields the bandwidth short TCP flows claim.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.sim.topology import dumbbell, flow_start
from repro.tcp import start_tcp_flow
from repro.udt import UdtConfig, start_udt_flow

DEFAULT_UDT_COUNTS = (0, 1, 2, 4, 7, 10)


def _measure(
    n_udt: int,
    rate_bps: float,
    rtt: float,
    duration: float,
    xfer_bytes: int,
    concurrent_tcp: int,
    seed: int,
    run_args: RunArgs,
) -> float:
    d = dumbbell(
        concurrent_tcp + max(n_udt, 1), rate_bps, rtt, seed=seed, **run_args.net
    )
    for i in range(n_udt):
        cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
        start_udt_flow(
            d.net, d.sources[concurrent_tcp + i], d.sinks[concurrent_tcp + i],
            config=cfg, start=flow_start(i), flow_id=f"udt{i}",
        )
    # Each TCP "slot" runs back-to-back short transfers for the whole run;
    # the metric is aggregate delivered TCP bytes in the measurement
    # window (partial transfers count — the paper measures throughput,
    # not completions).
    flow_ids = []

    def launch(slot: int, start_at: float, k: int) -> None:
        fid = f"tcp{slot}-{k}"
        flow_ids.append(fid)
        f = start_tcp_flow(
            d.net,
            d.sources[slot],
            d.sinks[slot],
            nbytes=xfer_bytes,
            start=start_at,
            flow_id=fid,
        )

        def check() -> None:
            if f.done:
                f.close()
                if d.net.sim.now < duration:
                    launch(slot, d.net.sim.now, k + 1)
            elif d.net.sim.now < duration:
                d.net.sim.schedule(0.05, check)

        d.net.sim.schedule(0.05, check)

    warm = duration * 0.25
    for slot in range(concurrent_tcp):
        launch(slot, warm + slot * 0.01, 0)
    d.net.run(until=duration)
    return sum(
        d.net.monitor.throughput_bps(fid, warm, duration) for fid in flow_ids
    )


def run(
    rate_bps: float = 1e9,
    rtt: float = 0.110,
    udt_counts: Sequence[int] = DEFAULT_UDT_COUNTS,
    duration: Optional[float] = None,
    xfer_bytes: int = 10_000_000,
    concurrent_tcp: int = 5,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if duration is None:
        duration = run_args.scaled(40.0, minimum=15.0)
    res = ExperimentResult(
        "fig13",
        "Aggregate short-TCP throughput vs number of background UDT flows",
        ["UDT flows", "TCP aggregate (Mb/s)"],
        paper_reference="Figure 13 (decays gently, ~690 -> ~480 Mb/s from "
        "0 to 10 background UDT flows)",
        notes=f"{concurrent_tcp} x {xfer_bytes/1e6:.0f} MB transfers "
        f"back-to-back, {mbps(rate_bps):.0f} Mb/s, {rtt*1e3:.0f} ms, "
        f"{duration:.0f}s",
    )
    for n in udt_counts:
        agg = _measure(
            n, rate_bps, rtt, duration, xfer_bytes, concurrent_tcp, seed, run_args
        )
        res.add(n, mbps(agg))
    return res
