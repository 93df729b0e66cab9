"""The UDT data plane's straight path: results pinned, frames budgeted.

The in-order, loss-free data packet crosses ``udt.core`` → ``udt.buffers``
→ ``udt.sim_adapter`` → ``sim.udp`` → ``sim.node`` → ``sim.link`` and back
on a shortened path (docs/PERFORMANCE.md, "UDT data plane").  Three guards:

* golden runs — what every flow delivered, retransmitted and lost, and how
  many events the engine dispatched, as generated by the general path on
  the commit before the shortcut existed; the shortcut removes work from
  handlers, never events from the stream, so none of these may move;
* a frame budget — Python-level calls per data packet, a count that
  repeats exactly on any host, so the gain cannot erode unnoticed where
  wall-clock gating is impossible;
* a heap bound — the event heap holds one entry per source while thousands
  of packets are in flight (``Simulator.post_fifo``), equally exact.
"""

import tracemalloc

import pytest

from repro.apps.bulk import UdpBlast
from repro.obs.prof import SimProfiler
from repro.sim.topology import dumbbell, flow_start, path_topology
from repro.sim.udp import UdpEndpoint
from repro.udt import UdtConfig, start_udt_flow
from tests._frames import count_calls, top_calls


def _clean(seed, fidelity="packet"):
    """Two bulk flows on a loss-free 1 Gb/s, 100 ms dumbbell."""
    top = dumbbell(2, 1e9, 0.100, seed=seed, fidelity=fidelity)
    flows = [
        start_udt_flow(top.net, top.sources[i], top.sinks[i], start=flow_start(i))
        for i in range(2)
    ]
    return top.net, flows


def _burstloss(seed, fidelity="packet"):
    """The fig08 regime: one flow under a 9.5x ON/OFF UDP blast from 0.7 s."""
    rate = 1e9
    top = path_topology(rate, 0.100, seed=seed, cross_sources=1, fidelity=fidelity)
    cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
    flow = start_udt_flow(top.net, top.src, top.dst, config=cfg)
    cross = next(n for n in top.net.nodes.values() if n.name == "cross0")
    sink = UdpEndpoint(top.dst, 9999)
    UdpBlast(
        top.net, cross, sink.address, rate_bps=rate * 9.5,
        on_time=0.10, off_time=0.90, start=0.7,
    )
    return top.net, [flow]


_BUILD = {"clean": _clean, "burstloss": _burstloss, "hybrid": _clean}

# (shape, seed, virtual seconds) -> (per-flow rows, events_processed,
# monitor totals, fluid spans); a row is (delivered_bytes, data_pkts_sent,
# retransmitted_pkts, loss events, acks_sent, naks_sent, speculation_hits,
# speculation_misses, duplicates).  Captured on commit 32d560a.
GOLDEN = {
    ("clean", 1, 1.2): (
        [(15183168, 13947, 0, 0, 28, 0, 10428, 0, 0),
         (14520688, 15352, 0, 0, 31, 0, 9973, 0, 0)],
        154113, [15183168, 14520688], 0,
    ),
    ("clean", 2, 1.2): (
        [(14829360, 14188, 0, 0, 30, 0, 10185, 0, 0),
         (14446432, 13483, 0, 0, 30, 0, 9922, 0, 0)],
        148355, [14829360, 14446432], 0,
    ),
    ("burstloss", 1, 1.3): (
        [(22674288, 20538, 976, 55, 31, 56, 14548, 1025, 6)],
        295287, [22674288], 0,
    ),
    ("burstloss", 2, 1.3): (
        [(22515584, 20282, 968, 59, 34, 60, 14439, 1025, 2)],
        293849, [22515584], 0,
    ),
    ("hybrid", 1, 12.0): (
        [(31244304, 21460, 0, 0, 59, 0, 21459, 0, 0),
         (32867744, 22574, 0, 0, 62, 0, 22574, 0, 0)],
        252770, [634613825, 636237265], 3,
    ),
    ("hybrid", 2, 12.0): (
        [(30396912, 20878, 0, 0, 57, 0, 20877, 0, 0),
         (29545152, 20292, 0, 0, 58, 0, 20292, 0, 0)],
        237023, [636239261, 635387501], 3,
    ),
}


def _observe(scenario):
    shape, seed, duration = scenario
    net, flows = _BUILD[shape](seed, "hybrid" if shape == "hybrid" else "packet")
    net.run(until=duration)
    rows = []
    for f in flows:
        snd, rcv, buf = f.sender.stats, f.receiver.stats, f.receiver.rcv_buffer
        rows.append((
            f.delivered_bytes, snd.data_pkts_sent, snd.retransmitted_pkts,
            len(f.receiver.loss_events), rcv.acks_sent, rcv.naks_sent,
            buf.speculation_hits, buf.speculation_misses, buf.duplicates,
        ))
    return (
        rows,
        net.sim.events_processed,
        [net.monitor.total_bytes[f.flow_id] for f in flows],
        net.fluid.spans if net.fluid is not None else 0,
    )


@pytest.mark.parametrize("scenario", GOLDEN, ids=lambda s: f"{s[0]}-seed{s[1]}")
def test_golden_per_flow_behaviour(scenario):
    assert _observe(scenario) == GOLDEN[scenario]


@pytest.mark.parametrize(
    "scenario", [s for s in GOLDEN if s[1] == 1], ids=lambda s: s[0]
)
def test_golden_unmoved_by_the_profiler(scenario):
    """The timed branch of the dispatch loop dispatches the same stream:
    every handler counted once, nothing in the results moved."""
    with SimProfiler().activate() as prof:
        got = _observe(scenario)
    assert got == GOLDEN[scenario]
    assert prof.events_total == got[1]


#: Python-level calls per data packet sent over the measured window: a
#: ceiling that catches added work, not a target.  A lowered figure lands
#: only beside a ``udt_clean`` ``wall_s`` row (docs/PERFORMANCE.md).
FRAMES_PER_PACKET = 26.75


def test_frame_budget_per_data_packet():
    """Calls per data packet stay at the straight path's figure.

    Virtual 1.0-1.2 s of the clean two-flow dumbbell (seed 1) under
    ``sys.setprofile``: 18 603 data packets leave, 12 713 arrive, every
    one in order, part of them through a standing bottleneck queue.  The
    general path on commit 32d560a made 1 200 987 calls there, 64.56 per
    packet sent; the straight path made 741 180, 39.84, with a copy of
    ``Link._transmit`` inlined in ``Link.send``.  The copy bought one
    frame per idle hop and no wall-clock that ten alternating ``udt_clean``
    pairs could resolve (docs/PERFORMANCE.md, "FIFO streams"), so there
    is one body now and an idle hop pays the call: 754 010, 40.53.  The
    send buffer releases an ACK's packets with one ``seq_off`` instead of
    a ``seq_cmp`` per packet: 744 189, 40.00.  A link into a router hands
    the packet to the next link's ``send`` (no ``Router.receive``), each
    core transmits through its connected endpoint's ``send`` (no
    forwarding closure) and a flow books arrival bins only when it
    records them: 681 415, 36.63.  A link into a host hands a datagram
    to its port's slot (no ``Host.receive``), an unlimited flow books its
    deliveries with the monitor directly (no ``UdtFlow._on_deliver``),
    the send tick re-arms itself and is handed its fire time (no
    ``_schedule_send``, no clock read), the link admits and drains on
    the queue's fields (no ``DropTailQueue.push``/``pop``), the window
    check reads the send buffer's length (no ``seq_off``) and an
    in-order arrival skips ``ReceiveBuffer.accepts``: 516 306, 27.75.
    The send tick asks the loss list's count (an attribute) before its
    ``peek``: 497 680, 26.75 (docs/PERFORMANCE.md, "Only what the run
    reads, down to the port").

    The budget catches added work; it is not a target, because fewer
    calls are not always less time.  ``SimScheduler.now`` as a
    ``partial`` over ``getattr`` counted 1.70 calls fewer per packet and
    read +1.0 % ``udt_clean`` ``wall_s``, ahead on 0 of 8 pairs: on
    CPython 3.11 and later a call to a Python method is cheaper than the
    C-level lookup (docs/PERFORMANCE.md, "A packet pays only for what the
    run reads").  So a lowered figure lands only beside a ``wall_s`` row.
    One frame of slack per packet: a new call on the per-packet path
    needs a reason and a new figure here; a failure prints the largest
    calls per packet.
    """
    net, flows = _clean(seed=1)
    net.run(until=1.0)
    sent_before = sum(f.sender.stats.data_pkts_sent for f in flows)
    tally = count_calls(net, 1.2)
    sent = sum(f.sender.stats.data_pkts_sent for f in flows) - sent_before
    assert sent == 18603
    assert all(f.receiver.rcv_buffer.speculation_misses == 0 for f in flows)
    assert sum(tally.values()) / sent <= FRAMES_PER_PACKET + 1.0, top_calls(
        tally, sent, "data packet"
    )


def test_heap_holds_one_entry_per_source():
    """Packets in flight wait in their link's stream, not in the heap.

    The clean two-flow dumbbell at virtual 1.2 s has thousands of packets
    in its 100 ms pipes; only the next arrival of each link competes in
    the heap, beside the few entries the flows and links keep for
    themselves (send tick, drain, ACK/NAK/EXP/SYN timers).
    """
    net, flows = _clean(seed=1)
    net.run(until=1.2)
    assert net.sim.pending() > 1000
    assert len(net.sim._heap) <= 2 * (len(net.links) + len(flows)) + 8


#: Traced bytes per ``sim.pending()`` entry.  A sender that filed each
#: packet in a map by sequence number, with a creation time and a bound
#: method per packet in flight, held 1 412; one that keeps none of them
#: held 849; with every full-size datagram of a connected endpoint
#: sharing one wire-size int, 780.  The bound sits between the last two.
BYTES_PER_PENDING = 800


def test_state_per_packet_in_flight():
    """What the clean dumbbell holds at virtual 1.2 s, per event pending.

    Thousands of packets sit in the 100 ms pipes and many more wait
    unacknowledged in the senders' windows; every byte allocated since
    the network was built and still alive counts against the pending
    entries (docs/PERFORMANCE.md, "Memory per packet in flight").
    """
    tracemalloc.start()
    try:
        net, flows = _clean(seed=1)
        base = tracemalloc.get_traced_memory()[0]
        net.run(until=1.2)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    pending = net.sim.pending()
    assert pending > 1000
    assert grown / pending < BYTES_PER_PENDING, grown / pending
