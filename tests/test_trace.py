"""Packet-level protocol facts, read off the bus detail tier.

The detail tier (``link.enq`` / ``link.deq`` per hop, beside the always-on
``link.drop`` / ``queue.highwater``) is the only packet trace path; these
tests subscribe to it the way any tool would and pin what the wire must
show: every accepted packet leaves exactly once, overflow is accounted
for, probe pairs leave back to back (§3.4), a burst parks in the queue.
"""

import pytest

from repro.apps.bulk import UdpBlast
from repro.experiments.common import traced
from repro.obs import bus as OB
from repro.obs.export import read_events, trace_session
from repro.sim.topology import dumbbell, path_topology
from repro.sim.udp import UdpEndpoint
from repro.tcp import start_tcp_flow
from repro.udt import start_udt_flow
from tests._collect import Collector

PACKET_KINDS = (OB.LINK_ENQ, OB.LINK_DEQ, OB.LINK_DROP)


@pytest.fixture
def wire():
    """``wire(link)`` -> the list that link's packet events collect in;
    ``wire(net=net)`` -> every link's.

    Links emit on their simulation's bus and name themselves in ``src``;
    ``wire.subs`` holds the subscriptions, newest last.
    """
    subs = []

    def watch(link=None, net=None):
        events = Collector()

        def on_event(kind, t, src, fields):
            if link is None or src == link.name:
                events(kind, t, src, fields)

        bus = (link if link is not None else net).sim.bus
        subs.append(bus.subscribe(on_event, kinds=PACKET_KINDS, detail=True))
        return events

    watch.subs = subs
    return watch


def _kind(events, kind):
    return [e for e in events if e.kind == kind]


def _udp_pair(top):
    a = UdpEndpoint(top.src, 1)
    b = UdpEndpoint(top.dst, 2)
    return a, b


def test_every_packet_enqueued_then_dequeued(wire):
    top = path_topology(10e6, 0.01)
    events = wire(top.bottleneck)
    a, b = _udp_pair(top)
    for i in range(20):
        top.net.sim.schedule(i * 0.01, a.sendto, i, 1000, b.address)
    top.net.run(until=2.0)
    enq, deq = _kind(events, OB.LINK_ENQ), _kind(events, OB.LINK_DEQ)
    assert len(enq) == 20
    assert [e.fields["uid"] for e in deq] == [e.fields["uid"] for e in enq]
    assert all(d.t >= e.t for e, d in zip(enq, deq))
    assert not _kind(events, OB.LINK_DROP)


def test_drops_recorded_on_overflow(wire):
    top = path_topology(1e6, 0.01, queue_pkts=4)
    events = wire(top.bottleneck)
    a, b = _udp_pair(top)
    for i in range(50):
        a.sendto(i, 1000, b.address)
    top.net.run(until=2.0)
    drops = _kind(events, OB.LINK_DROP)
    accepted = _kind(events, OB.LINK_ENQ)
    assert len(accepted) + len(drops) == 50  # every packet accounted for
    assert 30 <= len(drops) <= 46  # queue 4 + slots freed during the burst
    assert {e.fields["reason"] for e in drops} == {"queue"}
    assert len(_kind(events, OB.LINK_DEQ)) == len(accepted)
    assert max(e.fields["qlen"] for e in accepted) == 4


def test_probe_pair_spacing_on_the_wire(wire):
    """§3.4: pair packets leave the bottleneck back-to-back (their
    dequeue spacing equals the serialisation time, not the sending
    period)."""
    top = path_topology(50e6, 0.02)
    events = wire(top.bottleneck)
    start_udt_flow(top.net, top.src, top.dst)
    top.net.run(until=3.0)
    # Dequeue times of data packets (control packets carry no seq), in order.
    times = [
        e.t for e in _kind(events, OB.LINK_DEQ) if e.fields["seq"] is not None
    ]
    gaps = [b - a for a, b in zip(times, times[1:])]
    tx_time = 1500 * 8 / 50e6
    # In steady state most gaps ~ the pacing period (>> tx time), but the
    # probe pairs create a population of gaps at exactly the wire rate.
    wire_rate_gaps = [g for g in gaps if g < tx_time * 1.6]
    assert len(wire_rate_gaps) > len(times) / 40  # ~1 of 16 + slack


def test_detach_restores_link(wire):
    """Unsubscribing puts the links back on their dormant path; a later
    subscriber picks the wire up again."""
    top = path_topology(10e6, 0.01)
    bus = top.bottleneck.bus
    a, b = _udp_pair(top)
    events = wire(top.bottleneck)
    a.sendto("x", 500, b.address)
    top.net.run(until=0.5)
    seen = len(events)
    assert seen > 0 and bus.detail
    bus.unsubscribe(wire.subs.pop())
    assert not bus.detail and not bus.enabled
    a.sendto("y", 500, b.address)
    top.net.run(until=1.0)
    assert len(events) == seen  # nothing recorded after unsubscribing
    again = wire(top.bottleneck)
    a.sendto("z", 500, b.address)
    top.net.run(until=1.5)
    assert len(events) == seen and len(again) == seen


def test_detach_all_with_multiple_links(wire):
    """One subscription hears every link of the path, told apart by
    ``src``; dropping it silences all of them at once."""
    top = path_topology(10e6, 0.01)
    names = {l.name for l in top.net.links.values()}
    a, b = _udp_pair(top)
    events = wire(net=top.net)
    a.sendto("x", 500, b.address)
    top.net.run(until=0.5)
    forward = {e.src for e in _kind(events, OB.LINK_DEQ)}
    assert top.bottleneck.name in forward and len(forward) > 1
    assert forward <= names
    seen = len(events)
    top.net.sim.bus.unsubscribe(wire.subs.pop())
    a.sendto("y", 500, b.address)
    top.net.run(until=1.0)
    assert len(events) == seen


class TestQueueSampler:
    """Queue occupancy as ``link.enq.qlen`` reports it (the name predates
    the bus: the sampler is a subscriber now, not a timer)."""

    def test_empty_queue_statistics(self, wire):
        """Packets that find the wire idle never stand in the queue."""
        top = path_topology(10e6, 0.01)
        events = wire(top.bottleneck)
        highwater = Collector()
        top.bottleneck.bus.subscribe(highwater, kinds=[OB.QUEUE_HIGHWATER])
        a, b = _udp_pair(top)
        for i in range(10):
            top.net.sim.schedule(i * 0.1, a.sendto, i, 1000, b.address)
        top.net.run(until=1.5)
        enq = _kind(events, OB.LINK_ENQ)
        assert len(enq) == 10
        assert {e.fields["qlen"] for e in enq} == {0}
        assert not [e for e in highwater if e.src == top.bottleneck.name]

    def test_bursty_queue_seen_by_sampler(self, wire):
        top = path_topology(1e6, 0.01, queue_pkts=100)
        events = wire(top.bottleneck)
        a, b = _udp_pair(top)
        for i in range(50):  # 50 x 1000B burst into a 1 Mb/s link
            a.sendto(i, 1000, b.address)
        top.net.run(until=0.5)
        qlens = [e.fields["qlen"] for e in _kind(events, OB.LINK_ENQ)]
        assert max(qlens) >= 40  # burst parked in the queue
        assert 0 < sum(qlens) / len(qlens) < max(qlens)
        assert not _kind(events, OB.LINK_DROP)
        # drains to empty by the end
        assert len(_kind(events, OB.LINK_DEQ)) == 50
        assert len(top.bottleneck.queue) == 0


# -- nothing outlives a run -------------------------------------------------


def _mixed(rate_bps=20e6):
    """UDT + TCP + an ON/OFF UDP blast through one small bottleneck queue,
    default flow ids; returns the dumbbell and the two flows."""
    d = dumbbell(3, rate_bps, 0.02, queue_pkts=20, seed=3)
    udt = start_udt_flow(d.net, d.sources[0], d.sinks[0])
    tcp = start_tcp_flow(d.net, d.sources[1], d.sinks[1], start=0.01)
    UdpBlast(
        d.net, d.sources[2], (d.sinks[2].id, 9), 15e6,
        on_time=0.05, off_time=0.1, start=0.2,
    )
    return d, udt, tcp


def _mixed_dumbbell(path):
    """:func:`_mixed` run for 1 s with a packet-detail trace to ``path``;
    returns the two flow ids and the bottleneck's ``link.enq`` records."""
    with traced(str(path), packets=True):
        d, udt, tcp = _mixed()
        d.net.run(until=1.0)
    enq = [
        r for r in read_events(str(path))
        if r["kind"] == OB.LINK_ENQ and r["src"] == d.bottleneck.name
    ]
    return (udt.flow_id, tcp.flow_id), enq


def test_same_scenario_twice_in_one_interpreter_is_byte_identical(tmp_path):
    paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    for path in paths:
        flow_ids, enq = _mixed_dumbbell(path)
        assert flow_ids == ("udt0", "tcp0")
        # One allocator per simulation: the three senders never share a uid.
        assert {r["flow"] for r in enq} == {"udt0", "tcp0", None}
        uids = [r["uid"] for r in enq]
        assert len(set(uids)) == len(uids)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tcp_segment_drop_names_its_flow(wire):
    d = dumbbell(1, 20e6, 0.02, queue_pkts=10)
    events = wire(d.bottleneck)
    tcp = start_tcp_flow(d.net, d.sources[0], d.sinks[0])
    d.net.run(until=1.0)
    drops = _kind(events, OB.LINK_DROP)
    assert drops and {e.fields["flow"] for e in drops} == {tcp.flow_id}
    assert {e.fields["flow"] for e in _kind(events, OB.LINK_ENQ)} == {tcp.flow_id}


# -- one bus per simulation -------------------------------------------------


def test_two_simulations_in_one_process_keep_their_own_traces(tmp_path):
    """Two networks traced side by side, their runs interleaved slice by
    slice: each trace holds its own simulation's events and no other's,
    byte for byte what the same run writes traced alone."""
    rates = (20e6, 30e6)
    alone = []
    for i, rate in enumerate(rates):
        d = _mixed(rate)[0]
        with trace_session(str(tmp_path / f"alone{i}.jsonl"), packets=True, bus=d.sim.bus):
            d.net.run(until=1.0)
        alone.append((tmp_path / f"alone{i}.jsonl").read_bytes())
    nets = [_mixed(rate)[0].net for rate in rates]
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    with trace_session(str(paths[0]), packets=True, bus=nets[0].sim.bus), \
         trace_session(str(paths[1]), packets=True, bus=nets[1].sim.bus):
        for k in range(1, 21):
            for net in nets:
                net.run(until=k / 20)
    assert alone[0] != alone[1]
    assert [p.read_bytes() for p in paths] == alone


def test_a_session_entered_after_the_build_records_the_run(tmp_path):
    """The benchmark's order — build the network, enter ``traced()``, run —
    records what entering first does, and the session leaves the bus
    dormant again on exit."""
    first, after = tmp_path / "first.jsonl", tmp_path / "after.jsonl"
    _mixed_dumbbell(first)
    d = _mixed()[0]
    with traced(str(after), packets=True):
        d.net.run(until=1.0)
    assert not d.sim.bus.enabled
    assert sum(1 for _ in read_events(str(after))) > 1000
    assert after.read_bytes() == first.read_bytes()
