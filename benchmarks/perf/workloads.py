"""The six benchmark workloads (child-process side).

Each workload builds its scenario from the seed alone, runs one timed
region and returns a flat result dict: host seconds of the region,
simulated goodput, the result digest, the correctness checks and the
per-layer counts read from the layers' public statistics.

Imported only by ``child.py``: every repetition runs in a fresh
interpreter because flow and packet ids are process-global (the same
reason ``repro-udt sweep`` runs one cell per process).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from calib import HostSpeed

#: Virtual seconds per repetition, frozen so one driver run (four
#: repetitions plus set-up) lands near ``run_seconds`` in BENCHMARK.json.
#: ``--quick`` runs a quarter of these.
VIRTUAL_S = {
    "udt_clean": 2.6,
    "udt_burstloss": 3.2,
    "tcp_wan": 1.5,
    "udt_traced": 1.5,
    "udt_hybrid": 100.0,
}

#: live_loopback: transfers per child process and bytes per transfer.
LIVE_TRANSFERS = 4
LIVE_BYTES = 3 << 19
LIVE_CHUNK = 64 << 10
#: Flow window (packets) of the live endpoints.  At the default window the
#: transfer is bound by six threads sharing the interpreter lock on two
#: cores and single transfers spread +-25 % (medians of 12 ranged 0.845 to
#: 0.910 s), which no bound could gate; 16 packets per SYN keeps both
#: endpoints under half a core, and transfers then repeat within 1 %.
LIVE_WINDOW = 16

#: The timed region is cut into this many equal spans of virtual time, and
#: a calibration spin (``calib.py``) follows a slice once the region has run
#: for :data:`SPIN_EVERY_S` since the last one, so the host's speed is
#: sampled evenly over the *host* time it is used to normalise (udt_hybrid
#: does nine tenths of its work in a tenth of its virtual time).  A power
#: of two: the last boundary is exactly the virtual duration.
SLICES = 4096
SPIN_EVERY_S = 0.055
#: live_loopback: calibration spins before and after every transfer.
LIVE_SPINS = 16

SIM_WORKLOADS = tuple(VIRTUAL_S)
WORKLOADS = SIM_WORKLOADS + ("live_loopback",)


def _digest(rows: List[Any]) -> str:
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Simulated workloads
# ---------------------------------------------------------------------------


def _build_udt_dumbbell(seed: int):
    from repro.experiments.common import flow_start
    from repro.sim.topology import dumbbell
    from repro.udt import start_udt_flow

    top = dumbbell(2, 1e9, 0.100, seed=seed)
    flows = [
        start_udt_flow(top.net, top.sources[i], top.sinks[i], start=flow_start(i))
        for i in range(2)
    ]
    return top.net, flows


def _build_udt_burstloss(seed: int):
    """The fig08 regime: one flow under a 9.5x ON/OFF UDP blast."""
    from repro.apps.bulk import UdpBlast
    from repro.sim.topology import path_topology
    from repro.sim.udp import UdpEndpoint
    from repro.udt import UdtConfig, start_udt_flow

    rate = 1e9
    top = path_topology(rate, 0.100, seed=seed, cross_sources=1)
    cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
    flow = start_udt_flow(top.net, top.src, top.dst, config=cfg)
    cross = next(n for n in top.net.nodes.values() if n.name == "cross0")
    sink = UdpEndpoint(top.dst, 9999)
    UdpBlast(
        top.net, cross, sink.address, rate_bps=rate * 9.5,
        on_time=0.10, off_time=0.90, start=0.7,
    )
    return top.net, [flow]


def _build_tcp_wan(seed: int):
    """Two SACK flows whose slow start overshoots a BDP-sized queue.

    No random link loss: with ``loss_rate=1e-5`` a handful of losses at
    seed-dependent times moved goodput 19 % between seeds 1 and 2.  The
    overshoot drops ~3 300 packets at the same point for every seed, so
    the recovery episode (about 40 % of the run) is part of the pinned
    input and the seed only perturbs link serialisation jitter.
    """
    from repro.experiments.common import flow_start
    from repro.sim.topology import dumbbell
    from repro.tcp import start_tcp_flow

    top = dumbbell(2, 622e6, 0.032, seed=seed)
    flows = [
        start_tcp_flow(top.net, top.sources[i], top.sinks[i], start=flow_start(i))
        for i in range(2)
    ]
    return top.net, flows


_BUILDERS: Dict[str, Callable[[int], Any]] = {
    "udt_clean": _build_udt_dumbbell,
    "udt_burstloss": _build_udt_burstloss,
    "tcp_wan": _build_tcp_wan,
    "udt_traced": _build_udt_dumbbell,
    "udt_hybrid": _build_udt_dumbbell,
}


def _is_tcp(flow) -> bool:
    return hasattr(flow, "sink")


def _flow_row(flow) -> Dict[str, Any]:
    if _is_tcp(flow):
        st = flow.sender.stats
        return {
            "id": str(flow.flow_id), "delivered": flow.delivered_bytes,
            "retx": st.retransmits, "loss_events": st.fast_recoveries,
        }
    return {
        "id": str(flow.flow_id), "delivered": flow.delivered_bytes,
        "retx": flow.sender.stats.retransmitted_pkts,
        "loss_events": len(flow.receiver.loss_events),
    }


#: Per-layer counts every workload reports (zero where a layer is idle).
COUNT_KEYS = (
    "sim.engine.events", "sim.link.pkts_sent", "sim.link.pkts_lost",
    "sim.link.drops", "udt.core.data_pkts", "udt.core.retx_share",
    "udt.core.acks", "udt.core.naks", "udt.losslist.events", "tcp.agent.acks",
    "tcp.agent.retx_share", "tcp.agent.timeouts", "obs.bus.emits",
    "obs.store.bytes_per_event", "sim.fluid.spans", "sim.fluid.vtime_share",
    "live.transport.retx_share",
)


def _sim_counts(net, flows, vdur: float) -> Dict[str, float]:
    links = list(net.links.values())
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counts.update({
        "sim.engine.events": net.sim.events_processed,
        "sim.link.pkts_sent": sum(l.pkts_sent for l in links),
        "sim.link.pkts_lost": sum(l.pkts_lost for l in links),
        "sim.link.drops": sum(l.queue.drops for l in links),
    })
    udt = [f for f in flows if not _is_tcp(f)]
    tcp = [f for f in flows if _is_tcp(f)]
    sent = sum(f.sender.stats.data_pkts_sent for f in udt)
    counts["udt.core.data_pkts"] = sent
    counts["udt.core.retx_share"] = (
        sum(f.sender.stats.retransmitted_pkts for f in udt) / sent if sent else 0.0
    )
    counts["udt.core.acks"] = sum(f.receiver.stats.acks_sent for f in udt)
    counts["udt.core.naks"] = sum(f.receiver.stats.naks_sent for f in udt)
    counts["udt.losslist.events"] = sum(len(f.receiver.loss_events) for f in udt)
    segs = sum(f.sender.stats.segs_sent for f in tcp)
    counts["tcp.agent.acks"] = sum(f.sender.stats.acks_received for f in tcp)
    counts["tcp.agent.retx_share"] = (
        sum(f.sender.stats.retransmits for f in tcp) / segs if segs else 0.0
    )
    counts["tcp.agent.timeouts"] = sum(f.sender.stats.timeouts for f in tcp)
    fluid = net.fluid
    counts["sim.fluid.spans"] = fluid.spans if fluid is not None else 0
    counts["sim.fluid.vtime_share"] = (
        fluid.fluid_time / vdur if fluid is not None else 0.0
    )
    return counts


def run_sim(workload: str, seed: int, scale: float, tmp_dir: Path) -> Dict[str, Any]:
    """Build, run and check one simulated workload; returns its result."""
    from repro.experiments.common import traced

    # The topology builders read the fidelity tier from the environment.
    os.environ["REPRO_FIDELITY"] = "hybrid" if workload == "udt_hybrid" else "packet"
    vdur = VIRTUAL_S[workload] * scale
    net, flows = _BUILDERS[workload](seed)

    # Fluid credit is booked straight into the monitor; count it at that
    # public boundary so byte conservation can be checked from outside.
    credited: Dict[object, int] = {}
    if net.fluid is not None:
        credit_span = net.monitor.credit_span

        def counting_credit(flow, t0, t1, nbytes):
            credited[flow] = credited.get(flow, 0) + nbytes
            credit_span(flow, t0, t1, nbytes)

        net.monitor.credit_span = counting_credit

    trace_path: Optional[Path] = None
    if workload == "udt_traced":
        trace_path = tmp_dir / f"udt_traced_{os.getpid()}.rtrc"
    events_written = 0
    with traced(str(trace_path) if trace_path else None, packets=True) as session:
        # ``Network.run`` with the engine's run cut into slices: the fluid
        # tier must see the whole horizon, the engine resumes seamlessly.
        host = HostSpeed()
        host.spin()
        t0 = time.perf_counter()
        if net.fluid is not None:
            net.fluid.on_run(vdur)
        region_s = unsampled_s = time.perf_counter() - t0
        for k in range(1, SLICES + 1):
            t0 = time.perf_counter()
            net.sim.run(until=vdur * k / SLICES)
            dt = time.perf_counter() - t0
            region_s += dt
            unsampled_s += dt
            if unsampled_s >= SPIN_EVERY_S:
                host.spin()
                unsampled_s = 0.0
        events_written = session.events_written
    trace_bytes = 0
    if trace_path is not None:
        trace_bytes = trace_path.stat().st_size
        trace_path.unlink()

    rows = [_flow_row(f) for f in flows]
    totals = net.monitor.total_bytes
    checks = {
        "byte_conservation": all(
            totals.get(f.flow_id, 0) == f.delivered_bytes + credited.get(f.flow_id, 0)
            for f in flows
        ),
        "every_flow_delivered": all(totals.get(f.flow_id, 0) > 0 for f in flows),
    }
    counts = _sim_counts(net, flows, vdur)
    counts["obs.bus.emits"] = events_written
    counts["obs.store.bytes_per_event"] = (
        trace_bytes / events_written if events_written else 0.0
    )
    return {
        "region_s": [region_s],
        **host.result(),
        "ok": [all(checks.values())],
        "failed_checks": [name for name, passed in checks.items() if not passed],
        "goodput_mbps": sum(totals.get(f.flow_id, 0) for f in flows) * 8.0 / vdur / 1e6,
        "sim_digest": _digest([rows, net.sim.events_processed]),
        "counts": counts,
    }


# ---------------------------------------------------------------------------
# live_loopback
# ---------------------------------------------------------------------------


def _one_transfer(payload: bytes) -> Dict[str, Any]:
    """One transfer on a fresh endpoint pair: sender and receiver threads."""
    from repro.live.transport import LiveUdtEndpoint
    from repro.udt.params import UdtConfig

    def config() -> UdtConfig:
        return UdtConfig(
            correct_sending_rate=True,
            max_flow_window=LIVE_WINDOW,
            rcv_buffer_pkts=LIVE_WINDOW,
        )

    server = LiveUdtEndpoint(("127.0.0.1", 0), config=config())
    client = LiveUdtEndpoint(("127.0.0.1", 0), config=config())
    out: Dict[str, Any] = {}

    def send() -> None:
        try:
            for off in range(0, len(payload), LIVE_CHUNK):
                client.send(payload[off:off + LIVE_CHUNK])
        except Exception as exc:  # reported as a failed repetition
            out["send_error"] = repr(exc)

    def recv() -> None:
        try:
            out["got"] = server.recv_exactly(len(payload))
        except Exception as exc:
            out["recv_error"] = repr(exc)

    try:
        server.listen()
        client.connect(server.local_addr)
        threads = [threading.Thread(target=send), threading.Thread(target=recv)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90.0)
        seconds = time.perf_counter() - t0
        alive = any(t.is_alive() for t in threads)
        stats = client.core.stats
        return {
            "seconds": seconds,
            "ok": not alive and out.get("got") == payload,
            "data_pkts": stats.data_pkts_sent,
            "retx": stats.retransmitted_pkts,
            "acks": stats.acks_received,
            "naks": stats.naks_received,
        }
    finally:
        client.close()
        server.close()


def run_live(seed: int, scale: float) -> Dict[str, Any]:
    rng = random.Random(seed)
    nbytes = max(int(LIVE_BYTES * scale), LIVE_CHUNK)
    n = LIVE_TRANSFERS if scale >= 1.0 else 1
    host = HostSpeed()
    host.spin(LIVE_SPINS)
    transfers = []
    for _ in range(n):
        transfers.append(_one_transfer(rng.randbytes(nbytes)))
        host.spin(LIVE_SPINS)
    sent = sum(t["data_pkts"] for t in transfers)
    retx_share = sum(t["retx"] for t in transfers) / sent if sent else 0.0
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counts.update({
        "udt.core.data_pkts": sent,
        "udt.core.retx_share": retx_share,
        "udt.core.acks": sum(t["acks"] for t in transfers),
        "udt.core.naks": sum(t["naks"] for t in transfers),
        "live.transport.retx_share": retx_share,
    })
    ok = [t["ok"] for t in transfers]
    return {
        "region_s": [t["seconds"] for t in transfers],
        **host.result(),
        "ok": ok,
        "failed_checks": [] if all(ok) else ["payload_equal_no_timeout"],
        "transfer_bytes": nbytes,
        "sim_digest": "",
        "counts": counts,
    }
