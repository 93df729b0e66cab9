"""Isolated drives: one layer at a time on a pinned synthetic input.

Every drive builds fresh state, times a fixed number of operations
through the layer's public functions and reports host ns per operation
as the median of :data:`REPS` runs (``bigsend`` and the runner cells run
once: they take seconds).  Inputs never depend on the workload seed, so
these numbers compare across commits and across workloads.
"""

from __future__ import annotations

import heapq
import itertools
import random
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Tuple

REPS = 5


def _median_ns(run: Callable[[], Tuple[float, int]]) -> float:
    """``run()`` returns (seconds, operations) on fresh state."""
    return statistics.median(s / n for s, n in (run() for _ in range(REPS))) * 1e9


def _noop(*_args) -> None:
    pass


# -- sim.engine -------------------------------------------------------------

HEAP_DEPTH = 1000


def _ballast(sim) -> None:
    for i in range(HEAP_DEPTH):
        sim.post(1e9 + i, _noop)


def engine_post() -> Tuple[float, int]:
    """A self-re-posting callback: one post + one dispatch per op."""
    from repro.sim.engine import Simulator

    n = 100000
    sim = Simulator()
    _ballast(sim)
    left = [n]

    def tick() -> None:
        left[0] -= 1
        if left[0]:
            sim.post(1e-6, tick)

    sim.post(0.0, tick)
    t0 = perf_counter()
    sim.run(until=1.0)
    return perf_counter() - t0, n


def engine_timer_restart() -> Tuple[float, int]:
    """``Timer.restart`` churn: schedule + cancel, then pop the dead entries."""
    from repro.sim.engine import Simulator, Timer

    n = 50000
    sim = Simulator()
    _ballast(sim)
    timer = Timer(sim, _noop)
    t0 = perf_counter()
    for _ in range(n):
        timer.restart(0.5)
    sim.run(until=1.0)
    return perf_counter() - t0, n


# -- sim.link / sim.queues ----------------------------------------------------


class _Sink:
    """Stands in for a node: ``Node`` has slots, so it cannot be patched."""

    id = 1

    def receive(self, pkt) -> None:
        pass


def _link_to_sink(rate_bps: float, queue_pkts: int):
    from repro.sim.engine import Simulator
    from repro.sim.link import Link
    from repro.sim.node import Node
    from repro.sim.packet import Packet
    from repro.sim.queues import DropTailQueue

    sim = Simulator()
    link = Link(
        sim, Node(sim, 0), _Sink(), rate_bps, 1e-3, DropTailQueue(queue_pkts),
        jitter=0.1,
    )
    return sim, link, Packet(1500, (0, 1), (1, 1), None)


def link_send_idle() -> Tuple[float, int]:
    """Every packet finds the wire idle: one delivery event each."""
    n = 50000
    sim, link, pkt = _link_to_sink(1e9, 100)
    t0 = perf_counter()
    for i in range(n):
        sim.now = i * 1e-3
        link.send(pkt)
    dt = perf_counter() - t0
    sim.run()
    return dt, n


def link_send_queued() -> Tuple[float, int]:
    """Every packet queues behind the first: push, drain event, transmit."""
    n = 50000
    sim, link, pkt = _link_to_sink(1e9, n + 1)
    t0 = perf_counter()
    for _ in range(n):
        link.send(pkt)
    sim.run()
    return perf_counter() - t0, n


def _queue_churn(queue) -> Tuple[float, int]:
    from repro.sim.packet import Packet

    n = 100000
    pkt = Packet(1500, (0, 1), (1, 1), None)
    for _ in range(queue.capacity_pkts // 3):
        queue.push(pkt)
    t0 = perf_counter()
    for _ in range(n):
        if queue.push(pkt):
            queue.pop()
    return perf_counter() - t0, n


def queues_droptail() -> Tuple[float, int]:
    from repro.sim.queues import DropTailQueue

    return _queue_churn(DropTailQueue(300))


def queues_red() -> Tuple[float, int]:
    """Standing queue between min_th and max_th: the early-drop branch runs."""
    from repro.sim.queues import REDQueue

    return _queue_churn(REDQueue(300, rng=random.Random(0)))


# -- udt ------------------------------------------------------------------------


class _HeapScheduler:
    """Benchmark-owned virtual-time scheduler (the core's Scheduler protocol)."""

    def __init__(self) -> None:
        self.t = 0.0
        self._heap: list = []
        self._seq = itertools.count()

    def now(self) -> float:
        return self.t

    def call_at(self, when: float, fn: Callable[[], None]):
        entry = [max(when, self.t), next(self._seq), fn]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle) -> None:
        handle[2] = None

    def run_until(self, done: Callable[[], bool]) -> None:
        heap = self._heap
        while heap and not done():
            when, _, fn = heapq.heappop(heap)
            if fn is not None:
                self.t = when
                fn()


def udt_core_pkt() -> Tuple[float, int]:
    """Two cores joined by a zero-delay lossless pipe, per delivered packet."""
    from repro.udt.core import UdtCore
    from repro.udt.params import UdtConfig

    n = 20000
    cfg = UdtConfig()
    sched = _HeapScheduler()
    ends = {}

    def pipe(to: str):
        def transmit(msg, size: int) -> None:
            sched.call_at(sched.t, lambda: ends[to].on_datagram(msg, size))

        return transmit

    ends["snd"] = UdtCore(cfg, sched, pipe("rcv"), name="snd")
    ends["rcv"] = UdtCore(cfg, sched, pipe("snd"), name="rcv")
    ends["rcv"].listen()
    ends["snd"].connect()
    total = n * cfg.payload_size
    offered = [0]

    def done() -> bool:
        if offered[0] < total:
            offered[0] += ends["snd"].send(total - offered[0])
        return ends["rcv"].delivered_bytes >= total

    t0 = perf_counter()
    sched.run_until(done)
    dt = perf_counter() - t0
    if ends["rcv"].delivered_bytes < total:
        raise RuntimeError("udt.core.pkt_ns: transfer did not complete")
    return dt, n


def _loss_ranges():
    from repro.experiments.fig09_losslist import synth_loss_trace

    return synth_loss_trace(seed=0)


def losslist_access() -> Dict[str, float]:
    """fig09's replay of its synthetic loss trace, as ns per access."""
    from repro.experiments.fig09_losslist import time_structure
    from repro.udt.losslist import ReceiverLossList

    trace = _loss_ranges()
    runs = [time_structure(ReceiverLossList, trace) for _ in range(REPS)]
    return {
        f"udt.losslist.{op}_ns": statistics.median(r[f"{key}_mean_us"] for r in runs) * 1e3
        for op, key in (("insert", "insert"), ("remove", "delete"), ("query", "query"))
    }


def nakcodec_encode() -> Tuple[float, int]:
    from repro.udt import nakcodec

    ranges = _loss_ranges()
    t0 = perf_counter()
    for _ in range(200):
        nakcodec.encode(ranges)
    return perf_counter() - t0, 200 * len(ranges)


def nakcodec_decode() -> Tuple[float, int]:
    from repro.udt import nakcodec

    ranges = _loss_ranges()
    words = nakcodec.encode(ranges)
    t0 = perf_counter()
    for _ in range(200):
        nakcodec.decode(words)
    return perf_counter() - t0, 200 * len(ranges)


def _data_packet():
    from repro.udt import packets as P
    from repro.udt.params import UdtConfig

    size = UdtConfig().payload_size
    return P.DataPacket(seq=12345, size=size, ts=678, data=bytes(size))


def packets_encode() -> Tuple[float, int]:
    n = 50000
    pkt = _data_packet()
    t0 = perf_counter()
    for _ in range(n):
        pkt.encode()
    return perf_counter() - t0, n


def packets_decode() -> Tuple[float, int]:
    from repro.udt import packets as P

    n = 50000
    datagram = _data_packet().encode()
    t0 = perf_counter()
    for _ in range(n):
        P.decode(datagram)
    return perf_counter() - t0, n


# -- tcp.scoreboard ---------------------------------------------------------------

LOST_SEQS = 5000


def _lossy_board():
    from repro.tcp.scoreboard import Scoreboard

    board = Scoreboard()
    board.mark_lost_range(0, LOST_SEQS - 1)
    return board


def scoreboard_add_sack() -> Tuple[float, int]:
    n = 300
    board = _lossy_board()
    t0 = perf_counter()
    for i in range(n):
        board.add_sack(LOST_SEQS + 2 * i, LOST_SEQS + 2 * i)
    return perf_counter() - t0, n


def scoreboard_ack_upto() -> Tuple[float, int]:
    n = 300
    board = _lossy_board()
    t0 = perf_counter()
    for i in range(1, n + 1):
        board.ack_upto(i)
    return perf_counter() - t0, n


# -- obs ---------------------------------------------------------------------------


def bus_emit_dormant() -> Tuple[float, int]:
    """The guarded emit site of instrumented code, nobody subscribed."""
    from repro.obs import bus as OB

    n = 200000
    bus = OB.EventBus()
    t0 = perf_counter()
    for i in range(n):
        if bus.enabled:
            bus.emit(OB.PKT_SND, 0.0, "src", seq=i, size=1456, retx=False)
    return perf_counter() - t0, n


def bus_emit_active() -> Tuple[float, int]:
    from repro.obs import bus as OB

    n = 100000
    bus = OB.EventBus()
    bus.subscribe(_noop, detail=True)
    t0 = perf_counter()
    for i in range(n):
        if bus.enabled:
            bus.emit(OB.PKT_SND, 0.0, "src", seq=i, size=1456, retx=False)
    return perf_counter() - t0, n


def store_write(tmp_dir: Path) -> Tuple[float, int]:
    """``RtrcWriter.on_event`` per event, block flushes and close included."""
    from repro.obs import bus as OB
    from repro.obs.store import RtrcWriter

    n = 50000
    events = [
        OB.Event(i * 1e-5, OB.PKT_SND, "udt0-snd", {"seq": i, "size": 1456, "retx": False})
        for i in range(n)
    ]
    writer = RtrcWriter(tmp_dir / "write.rtrc")
    t0 = perf_counter()
    for ev in events:
        writer.on_event(ev)
    writer.close()
    return perf_counter() - t0, n


# -- live ------------------------------------------------------------------------------


def clock_overshoot() -> Dict[str, float]:
    from repro.live.clock import wait_until

    over = []
    for _ in range(1000):
        deadline = perf_counter() + 200e-6
        wait_until(deadline)
        over.append((perf_counter() - deadline) * 1e6)
    over.sort()
    return {
        "live.clock.overshoot_p50_us": over[len(over) // 2],
        "live.clock.overshoot_p99_us": over[int(len(over) * 0.99)],
    }


def transport_bigsend() -> float:
    """One 16 MB transfer handed to ``send`` in a single call."""
    from repro.live.transport import loopback_transfer

    stats = loopback_transfer(random.Random(0).randbytes(16 << 20))
    return stats["bytes"] / stats["seconds"] / 1e6


# -- runner --------------------------------------------------------------------------------


def runner_cells(tmp_dir: Path) -> Dict[str, float]:
    """Cold cell (spawn + import + digest; table1 computes nothing), then a hit."""
    from repro.runner.sweep import run_sweep

    cache = tmp_dir / "cache"
    t0 = perf_counter()
    cold = run_sweep(only=["table1"], force=True, cache_dir=cache)
    t1 = perf_counter()
    warm = run_sweep(only=["table1"], cache_dir=cache)
    t2 = perf_counter()
    if cold.executed != ["table1"] or warm.cached != ["table1"]:
        raise RuntimeError(f"runner cells: cold={cold.executed} warm={warm.cached}")
    return {"runner.cell_s": t1 - t0, "runner.warm_hit_s": t2 - t1}


def run_all(out_dir: Path) -> Dict[str, float]:
    tmp_dir = Path(tempfile.mkdtemp(prefix="layers-", dir=out_dir))
    try:
        m = {
            "sim.engine.post_ns": _median_ns(engine_post),
            "sim.engine.timer_restart_ns": _median_ns(engine_timer_restart),
            "sim.link.send_idle_ns": _median_ns(link_send_idle),
            "sim.link.send_queued_ns": _median_ns(link_send_queued),
            "sim.queues.droptail_ns": _median_ns(queues_droptail),
            "sim.queues.red_ns": _median_ns(queues_red),
            "udt.core.pkt_ns": _median_ns(udt_core_pkt),
            "udt.nakcodec.encode_ns": _median_ns(nakcodec_encode),
            "udt.nakcodec.decode_ns": _median_ns(nakcodec_decode),
            "udt.packets.encode_ns": _median_ns(packets_encode),
            "udt.packets.decode_ns": _median_ns(packets_decode),
            "tcp.scoreboard.add_sack_ns": _median_ns(scoreboard_add_sack),
            "tcp.scoreboard.ack_upto_ns": _median_ns(scoreboard_ack_upto),
            "obs.bus.emit_dormant_ns": _median_ns(bus_emit_dormant),
            "obs.bus.emit_active_ns": _median_ns(bus_emit_active),
            "obs.store.write_ns": _median_ns(lambda: store_write(tmp_dir)),
            "live.transport.bigsend_MBps": transport_bigsend(),
        }
        m.update(losslist_access())
        m.update(clock_overshoot())
        m.update(runner_cells(tmp_dir))
        return m
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
