"""Ablation experiments for the design choices DESIGN.md calls out.

* ``bwe``   — bandwidth-estimated increase (formula (1)) vs fixed AIMD.
* ``syn``   — the SYN-interval tradeoff of §3.7 (efficiency vs
  friendliness vs stability).
* ``sabul`` — UDT's AIMD vs SABUL's MIMD: fairness convergence after a
  staggered start (§2.3 / §5.2).
* ``multibottleneck`` — §3.4 footnote: on multi-bottleneck topologies a
  UDT flow reaches at least half of its max-min fair share.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.metrics import jain_index
from repro.sabul import start_sabul_flow
from repro.sim.topology import dumbbell, flow_start, multi_bottleneck, path_topology
from repro.tcp import start_tcp_flow
from repro.udt import FixedAimdCC, UdtConfig, start_udt_flow


def run_bwe(
    rate_bps: float = 622e6,
    rtt: float = 0.1,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    """Formula (1) vs a fixed +1 packet/SYN increase."""
    if duration is None:
        duration = run_args.scaled(40.0, minimum=12.0)
    res = ExperimentResult(
        "ablation-bwe",
        "Bandwidth-estimated vs fixed AIMD increase",
        ["controller", "single-flow Mb/s", "2-flow Jain (staggered start)"],
        paper_reference="§3.3-§3.4 (estimation picks the increase "
        "parameter automatically)",
        notes=f"{mbps(rate_bps):.0f} Mb/s, {rtt*1e3:.0f} ms, link loss 1e-5",
    )
    warm = duration / 3
    for name, cc_factory in (
        ("UDT native (bw estimation)", None),
        ("fixed +1 pkt/SYN", lambda cfg: FixedAimdCC(cfg, 1.0)),
    ):
        kw = {} if cc_factory is None else {"cc_factory": cc_factory}
        top = path_topology(rate_bps, rtt, loss_rate=1e-5, seed=seed, **run_args.net)
        cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
        f = start_udt_flow(top.net, top.src, top.dst, config=cfg, **kw)
        top.net.run(until=duration)
        single = f.throughput_bps(warm, duration)

        d = dumbbell(2, rate_bps, rtt, seed=seed, **run_args.net)
        f1 = start_udt_flow(d.net, d.sources[0], d.sinks[0], config=cfg, **kw)
        f2 = start_udt_flow(
            d.net, d.sources[1], d.sinks[1], config=cfg, start=duration / 4, **kw
        )
        d.net.run(until=duration)
        fairness = jain_index(
            [f1.throughput_bps(warm * 2, duration), f2.throughput_bps(warm * 2, duration)]
        )
        res.add(name, mbps(single), round(fairness, 4))
    return res


def run_syn(
    syn_values: Sequence[float] = (0.001, 0.01, 0.1),
    rate_bps: float = 100e6,
    rtt: float = 0.1,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    """§3.7: smaller SYN -> more efficient, less TCP-friendly."""
    if duration is None:
        duration = run_args.scaled(40.0, minimum=12.0)
    res = ExperimentResult(
        "ablation-syn",
        "SYN interval tradeoff: efficiency vs TCP share",
        ["SYN (ms)", "UDT alone Mb/s", "TCP share vs 1 UDT (Mb/s)"],
        paper_reference='§3.7 ("decrease SYN: more efficiency, less '
        'friendliness"); default SYN = 10 ms',
        notes=f"{mbps(rate_bps):.0f} Mb/s, {rtt*1e3:.0f} ms",
    )
    warm = duration / 3
    for syn in syn_values:
        cfg = UdtConfig(syn=syn, rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
        top = path_topology(rate_bps, rtt, loss_rate=1e-5, seed=seed, **run_args.net)
        f = start_udt_flow(top.net, top.src, top.dst, config=cfg)
        top.net.run(until=duration)
        alone = f.throughput_bps(warm, duration)

        d = dumbbell(2, rate_bps, rtt, seed=seed, **run_args.net)
        start_udt_flow(d.net, d.sources[0], d.sinks[0], config=cfg, start=flow_start(0))
        tcp = start_tcp_flow(d.net, d.sources[1], d.sinks[1], start=flow_start(1))
        d.net.run(until=duration)
        res.add(syn * 1e3, mbps(alone), mbps(tcp.throughput_bps(warm, duration)))
    return res


def run_sabul(
    rate_bps: float = 100e6,
    rtt: float = 0.05,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    """UDT vs SABUL: fairness convergence after a staggered start."""
    if duration is None:
        duration = run_args.scaled(90.0, minimum=45.0)
    res = ExperimentResult(
        "ablation-sabul",
        "UDT (AIMD + bw estimation) vs SABUL (MIMD): staggered-start fairness",
        ["protocol", "flow1 Mb/s", "flow2 Mb/s", "Jain index (last third)"],
        paper_reference="§2.3/§5.2 (SABUL's MIMD converges slowly to "
        "fairness; similar efficiency)",
        notes=f"flow2 starts at t={duration/4:.0f}s; measured over the last third",
    )
    for name, starter in (("UDT", start_udt_flow), ("SABUL", start_sabul_flow)):
        d = dumbbell(2, rate_bps, rtt, seed=seed, **run_args.net)
        f1 = starter(d.net, d.sources[0], d.sinks[0], flow_id="f1")
        f2 = starter(d.net, d.sources[1], d.sinks[1], start=duration / 4, flow_id="f2")
        d.net.run(until=duration)
        t0 = duration * 2 / 3
        t1, t2 = f1.throughput_bps(t0, duration), f2.throughput_bps(t0, duration)
        res.add(name, mbps(t1), mbps(t2), round(jain_index([t1, t2]), 4))
    return res


def run_delay(
    rate_bps: float = 50e6,
    rtt: float = 0.05,
    duration: Optional[float] = None,
    seed: int = 4,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    """§6's obsolete design: PCT/PDT delay-trend congestion warnings.

    Reproduces the lesson learned: the delay-based variant is friendlier
    to a competing TCP flow but pays for it in throughput.
    """
    from repro.tcp import start_tcp_flow
    from repro.udt.delaycc import DelayWarningCC, attach_delay_detection
    from repro.udt.sim_adapter import UdtFlow

    if duration is None:
        duration = run_args.scaled(60.0, minimum=20.0)
    res = ExperimentResult(
        "ablation-delay",
        "Loss-only vs delay-trend (PCT/PDT) congestion detection",
        ["variant", "UDT Mb/s", "competing TCP Mb/s", "UDT retransmissions"],
        paper_reference='§6 ("friendlier to TCP, but may lead to poor '
        'throughputs"); the design UDT shipped without',
        notes=f"1 UDT + 1 TCP on {mbps(rate_bps):.0f} Mb/s, {rtt*1e3:.0f} ms",
    )
    warm = duration / 2
    for name, use_delay in (("loss-only (final UDT)", False), ("delay-trend", True)):
        d = dumbbell(2, rate_bps, rtt, seed=seed, **run_args.net)
        if use_delay:
            u = UdtFlow(
                d.net, d.sources[0], d.sinks[0],
                cc_factory=DelayWarningCC, start=flow_start(0), flow_id="u",
            )
            attach_delay_detection(u)
        else:
            u = start_udt_flow(
                d.net, d.sources[0], d.sinks[0], start=flow_start(0), flow_id="u"
            )
        t = start_tcp_flow(
            d.net, d.sources[1], d.sinks[1], start=flow_start(1), flow_id="t"
        )
        d.net.run(until=duration)
        res.add(
            name,
            mbps(u.throughput_bps(warm, duration)),
            mbps(t.throughput_bps(warm, duration)),
            u.sender.stats.retransmitted_pkts,
        )
    return res


def run_control_channel(
    rate_bps: float = 50e6,
    rtt: float = 0.05,
    duration: Optional[float] = None,
    seed: int = 9,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    """§2.3/§6: SABUL's TCP control channel vs UDT's UDP-only design."""
    from repro.sabul.control_channel import attach_tcp_control_channel

    if duration is None:
        duration = run_args.scaled(50.0, minimum=20.0)
    res = ExperimentResult(
        "ablation-control-channel",
        "Control over UDP (UDT) vs over a TCP-like channel (SABUL legacy)",
        ["control channel", "aggregate Mb/s", "ctrl retransmissions"],
        paper_reference='§6 ("Using TCP in another transport protocol '
        'should be avoided" — HOL-blocked feedback during congestion)',
        notes=f"2 UDT flows on {mbps(rate_bps):.0f} Mb/s, small queue to "
        "force recurring congestion",
    )
    warm = duration * 0.4
    for label, tcp_ctrl in (("UDP (UDT)", False), ("TCP-like (SABUL)", True)):
        d = dumbbell(2, rate_bps, rtt, queue_pkts=60, seed=seed, **run_args.net)
        f1 = start_udt_flow(
            d.net, d.sources[0], d.sinks[0], start=flow_start(0), flow_id="a"
        )
        f2 = start_udt_flow(
            d.net, d.sources[1], d.sinks[1], start=flow_start(1), flow_id="b"
        )
        retx = 0
        if tcp_ctrl:
            chans = [attach_tcp_control_channel(f1), attach_tcp_control_channel(f2)]
        d.net.run(until=duration)
        if tcp_ctrl:
            retx = sum(c.retransmissions for ch in chans for c in ch.values())
        total = f1.throughput_bps(warm, duration) + f2.throughput_bps(warm, duration)
        res.add(label, mbps(total), retx)
    return res


def run_multibottleneck(
    n_hops: int = 3,
    rate_bps: float = 100e6,
    hop_rtt: float = 0.02,
    duration: Optional[float] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    """§3.4 footnote: the long flow gets >= half its max-min share."""
    if duration is None:
        duration = run_args.scaled(60.0, minimum=15.0)
    m = multi_bottleneck(n_hops, rate_bps, hop_rtt, seed=seed, **run_args.net)
    cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
    long_flow = start_udt_flow(
        m.net, m.sources[0], m.sinks[0], config=cfg,
        start=flow_start(0), flow_id="long",
    )
    cross = [
        start_udt_flow(
            m.net, m.sources[i + 1], m.sinks[i + 1], config=cfg,
            start=flow_start(i + 1), flow_id=f"x{i}",
        )
        for i in range(n_hops)
    ]
    m.net.run(until=duration)
    warm = duration / 3
    lt = long_flow.throughput_bps(warm, duration)
    res = ExperimentResult(
        "ablation-multibottleneck",
        "Parking lot: long flow vs per-hop cross flows",
        ["flow", "throughput (Mb/s)", "fraction of max-min share"],
        paper_reference="§3.4 footnote (long flow >= 1/2 of max-min share)",
        notes=f"{n_hops} bottlenecks of {mbps(rate_bps):.0f} Mb/s; "
        f"max-min share = {mbps(rate_bps)/2:.0f} Mb/s each",
    )
    maxmin = rate_bps / 2.0
    res.add("long (all hops)", mbps(lt), round(lt / maxmin, 3))
    for i, f in enumerate(cross):
        ct = f.throughput_bps(warm, duration)
        res.add(f"cross hop {i}", mbps(ct), round(ct / maxmin, 3))
    return res
