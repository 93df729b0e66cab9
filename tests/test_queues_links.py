"""Unit tests for queues, links, nodes and routing."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import FRAG_HEADER, Link
from repro.sim.node import Host, Router
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, REDQueue
from repro.sim.topology import (
    Network,
    bdp_packets,
    dumbbell,
    join_topology,
    multi_bottleneck,
    paper_queue_size,
    path_topology,
)


def mkpkt(size=1500, dst=(1, 7)):
    return Packet(size=size, src=(0, 1), dst=dst)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(10)
        pkts = [mkpkt() for _ in range(3)]
        for p in pkts:
            assert q.push(p)
        assert [q.pop() for _ in range(3)] == pkts

    def test_drops_when_full(self):
        q = DropTailQueue(2)
        assert q.push(mkpkt())
        assert q.push(mkpkt())
        assert not q.push(mkpkt())
        assert q.drops == 1
        assert len(q) == 2

    def test_byte_cap(self):
        q = DropTailQueue(100, capacity_bytes=3000)
        assert q.push(mkpkt(1500))
        assert q.push(mkpkt(1500))
        assert not q.push(mkpkt(1))
        assert q.drops == 1

    def test_byte_accounting(self):
        q = DropTailQueue(10)
        q.push(mkpkt(1000))
        q.push(mkpkt(500))
        assert q.bytes == 1500
        q.pop()
        assert q.bytes == 500

    def test_pop_empty_returns_none(self):
        assert DropTailQueue(5).pop() is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestRED:
    def test_accepts_below_min_threshold(self):
        q = REDQueue(100, min_th=10, max_th=30)
        for _ in range(5):
            assert q.push(mkpkt())
        assert q.drops == 0

    def test_drops_under_sustained_load(self):
        import random

        q = REDQueue(100, min_th=5, max_th=15, rng=random.Random(1))
        pushed = 0
        for _ in range(500):
            if q.push(mkpkt()):
                pushed += 1
            if len(q) > 20:
                q.pop()
        assert q.drops > 0
        assert pushed > 0

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            REDQueue(100, min_th=30, max_th=10)


class _Sink(Host):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.got = []

    def deliver(self, pkt):
        self.got.append((self.sim.now, pkt))


class TestLink:
    def _pair(self, rate=8e6, delay=0.01, **kw):
        sim = Simulator()
        a = Host(sim, 0)
        b = _Sink(sim, 1)
        link = Link(sim, a, b, rate, delay, **kw)
        a.routes[1] = link
        return sim, a, b, link

    def test_delivery_time_is_serialisation_plus_propagation(self):
        sim, a, b, link = self._pair(rate=8e6, delay=0.01)
        a.send(mkpkt(1000))  # 1000 B at 8 Mb/s = 1 ms
        sim.run()
        assert b.got[0][0] == pytest.approx(0.011)

    def test_back_to_back_serialised(self):
        sim, a, b, link = self._pair(rate=8e6, delay=0.0)
        a.send(mkpkt(1000))
        a.send(mkpkt(1000))
        sim.run()
        times = [t for t, _ in b.got]
        assert times == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_queue_overflow_drops(self):
        sim, a, b, link = self._pair(rate=8e3, queue=DropTailQueue(2))
        for _ in range(10):
            a.send(mkpkt(1000))
        sim.run()
        # 1 in flight + 2 queued survive
        assert len(b.got) == 3
        assert link.queue.drops == 7

    def test_random_loss(self):
        sim, a, b, link = self._pair(
            rate=8e9, loss_rate=0.5, queue=DropTailQueue(500)
        )
        for _ in range(200):
            a.send(mkpkt(1000))
        sim.run()
        assert 60 < len(b.got) < 140
        assert link.pkts_lost == 200 - len(b.got)

    def test_fragmentation_overhead_and_count(self):
        sim, a, b, link = self._pair(mtu=1500)
        big = mkpkt(3001)
        assert link.fragments(big) == 3
        assert link.wire_size(big) == 3001 + 2 * FRAG_HEADER
        small = mkpkt(1500)
        assert link.fragments(small) == 1
        assert link.wire_size(small) == 1500

    def test_fragment_loss_amplification(self):
        # With per-fragment loss, large packets die more often.
        sim, a, b, link = self._pair(rate=8e9, loss_rate=0.05, mtu=1500)
        for _ in range(300):
            a.send(mkpkt(6000))
        sim.run()
        survival = len(b.got) / 300
        assert survival < 0.90  # (1-0.05)^4 ~= 0.81

    def test_invalid_params(self):
        sim = Simulator()
        a, b = Host(sim, 0), Host(sim, 1)
        with pytest.raises(ValueError):
            Link(sim, a, b, 0, 0.01)
        with pytest.raises(ValueError):
            Link(sim, a, b, 1e6, -1)
        with pytest.raises(ValueError):
            Link(sim, a, b, 1e6, 0.01, loss_rate=1.5)


class TestNodesRouting:
    def test_host_port_demux(self):
        sim = Simulator()
        h = Host(sim, 0)
        got = []
        h.bind(5, lambda p: got.append(p))
        pkt = Packet(100, (0, 9), (0, 5))
        sim.schedule(0, h.receive, pkt)
        sim.run()
        assert got == [pkt]

    def test_unbound_port_dropped_silently(self):
        sim = Simulator()
        h = Host(sim, 0)
        h.receive(Packet(100, (0, 9), (0, 77)))

    def test_double_bind_rejected(self):
        sim = Simulator()
        h = Host(sim, 0)
        h.bind(5, lambda p: None)
        with pytest.raises(ValueError):
            h.bind(5, lambda p: None)

    def test_next_free_port_skips_bound(self):
        sim = Simulator()
        h = Host(sim, 0)
        p = h.next_free_port()
        h.bind(p, lambda x: None)
        assert h.next_free_port() == p + 1

    def test_router_delivery_is_error(self):
        sim = Simulator()
        r = Router(sim, 0)
        with pytest.raises(RuntimeError):
            r.deliver(mkpkt(dst=(0, 1)))

    def test_multihop_forwarding(self):
        net = Network()
        a = net.add_host("a")
        r1 = net.add_router("r1")
        r2 = net.add_router("r2")
        b = net.add_host("b")
        net.add_link(a, r1, 1e9, 0.001)
        net.add_link(r1, r2, 1e9, 0.001)
        net.add_link(r2, b, 1e9, 0.001)
        net.finalize()
        got = []
        b.bind(1, got.append)
        a.send(Packet(100, (a.id, 0), (b.id, 1)))
        net.run(until=1.0)
        assert len(got) == 1
        assert got[0].hops == 3

    def test_a_second_finalize_routes_over_a_new_link(self):
        # a -> r1 -> b over a slow direct link; a faster r1 -> r2 -> b
        # added later must carry traffic once finalize() has run again,
        # which rebuilds the next-hop table of the a -> r1 link.
        net = Network(default_jitter=0.0)
        a = net.add_host("a")
        r1 = net.add_router("r1")
        b = net.add_host("b")
        ar1, _ = net.add_link(a, r1, 1e9, 0.001)
        slow, _ = net.add_link(r1, b, 1e9, 0.5)
        net.finalize()
        assert ar1.next_hop[b.id] == slow.send
        got = []
        b.bind(1, got.append)
        a.send(Packet(100, (a.id, 0), (b.id, 1)))
        net.run(until=1.0)
        assert [p.hops for p in got] == [2]
        r2 = net.add_router("r2")
        fast, _ = net.add_link(r1, r2, 1e9, 0.001)
        net.add_link(r2, b, 1e9, 0.001)
        net.finalize()
        assert ar1.next_hop[b.id] == fast.send
        a.send(Packet(100, (a.id, 0), (b.id, 1)))
        net.run(until=1.1)
        assert [p.hops for p in got] == [2, 3]
        assert (slow.pkts_sent, fast.pkts_sent) == (1, 1)

    def test_a_packet_addressed_to_a_router_still_raises(self):
        net = Network()
        a = net.add_host("a")
        r = net.add_router("r")
        b = net.add_host("b")
        net.add_link(a, r, 1e9, 0.001)
        net.add_link(r, b, 1e9, 0.001)
        net.finalize()
        a.send(Packet(100, (a.id, 0), (r.id, 1)))
        with pytest.raises(RuntimeError, match="addressed to router"):
            net.run(until=1.0)

    def test_an_unroutable_destination_is_counted_at_the_router(self):
        net = Network()
        a = net.add_host("a")
        r = net.add_router("r")
        b = net.add_host("b")
        ar, _ = net.add_link(a, r, 1e9, 0.001)
        net.add_link(r, b, 1e9, 0.001)
        net.finalize()
        ar.send(Packet(100, (a.id, 0), (99, 1)))  # no node 99 anywhere
        net.run(until=1.0)
        assert (a.pkts_unroutable, r.pkts_unroutable) == (0, 1)

    def test_a_link_built_outside_a_network_delivers_through_receive(
        self, monkeypatch
    ):
        seen = []
        receive = Router.receive

        def counting(router, pkt):
            seen.append(pkt)
            receive(router, pkt)

        monkeypatch.setattr(Router, "receive", counting)
        sim = Simulator()
        a = Host(sim, 0)
        r = Router(sim, 1)
        b = _Sink(sim, 2)
        ar = Link(sim, a, r, 8e6, 0.01)
        rb = Link(sim, r, b, 8e6, 0.01)
        a.routes[2] = ar
        r.routes[2] = rb
        pkt = Packet(100, (0, 1), (2, 7))
        a.send(pkt)
        sim.run()
        assert ar.next_hop == {}
        assert seen == [pkt]
        assert [(p, p.hops) for _, p in b.got] == [(pkt, 2)]

    def test_loopback_delivery(self):
        net = Network()
        a = net.add_host("a")
        net.finalize()
        got = []
        a.bind(1, got.append)
        a.send(Packet(100, (a.id, 0), (a.id, 1)))
        net.run(until=0.1)
        assert len(got) == 1

    def test_unroutable_counted(self):
        net = Network()
        a = net.add_host("a")
        net.add_host("b")
        net.finalize()
        ok = a.send(Packet(100, (a.id, 0), (99, 1)))
        assert not ok
        assert a.pkts_unroutable == 1

    def test_routing_prefers_short_delay_path(self):
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        r_fast = net.add_router("fast")
        r_slow = net.add_router("slow")
        net.add_link(a, r_fast, 1e9, 0.001)
        net.add_link(r_fast, b, 1e9, 0.001)
        net.add_link(a, r_slow, 1e9, 0.5)
        net.add_link(r_slow, b, 1e9, 0.5)
        net.finalize()
        assert a.routes[b.id].dst is r_fast


def _queue_state(q):
    return (
        q.drops, q.bytes, len(q), q.peak_pkts, q.peak_bytes, q.enqueued,
        list(q.packets), getattr(q, "avg", None),
    )


@pytest.mark.parametrize(
    "make_queue",
    [
        lambda: DropTailQueue(5),
        lambda: DropTailQueue(100, capacity_bytes=4000),
        lambda: REDQueue(30, min_th=2, max_th=6, weight=0.5, rng=random.Random(3)),
    ],
    ids=["droptail", "byte-cap", "red"],
)
def test_a_link_admits_and_drains_by_its_queues_own_push_and_pop(make_queue):
    """``Link.send``/``_drain`` apply the queue's rule to its fields; the
    queue state, every verdict and the drain order are ``push``/``pop``'s."""
    sim = Simulator()
    a, b = Host(sim, 0), _Sink(sim, 1)
    link = Link(sim, a, b, 8e6, 0.01, queue=make_queue())
    ref = make_queue()
    pkts = [mkpkt(size) for size in [1000, 1500, 40, 1500, 700] * 8]
    assert link.send(pkts[0])  # the idle wire takes the first one
    verdicts = [(link.send(p), ref.push(p)) for p in pkts[1:]]
    assert all(mine == theirs for mine, theirs in verdicts)
    assert any(not ok for ok, _ in verdicts) and any(ok for ok, _ in verdicts)
    assert _queue_state(link.queue) == _queue_state(ref)
    sim.run()
    assert [p for _, p in b.got] == [pkts[0]] + [ref.pop() for _ in range(len(ref))]
    assert link.queue.bytes == 0 and not link.queue


def _via_receive(net):
    """Empty every link's port table: each datagram then reaches its host's
    ``receive`` at arrival, the path that resolved ports before links did."""
    for link in net.links.values():
        link.ports = {}


class TestHostDelivery:
    """A finalized link into a host hands a datagram for a bound port to the
    port's slot; every outcome is the one ``Host.receive`` would give at
    arrival, checked against that path (:func:`_via_receive`) too."""

    def _net(self, sink_cls=Host):
        # a -> r -> b, 1 ms serialisation and 10 ms delay per hop: a
        # datagram sent at 0 is on the r -> b link from 0.012 to 0.023 s.
        net = Network(default_jitter=0.0)
        a = net.add_host("a")
        r = net.add_router("r")
        b = sink_cls(net.sim, 2)
        net.nodes[b.id] = b
        net.add_link(a, r, 8e6, 0.01)
        net.add_link(r, b, 8e6, 0.01)
        net.finalize()
        return net, a, b

    def _run(self, via_receive, sink_cls, script):
        """Send one datagram a -> b:7 at 0, call ``script(b, got)`` at
        0.015 s (in flight on r -> b); what each party received, when."""
        net, a, b = self._net(sink_cls)
        if via_receive:
            _via_receive(net)
        got = {"first": [], "second": []}
        b.bind(7, lambda p: got["first"].append(net.sim.now))
        net.sim.schedule_at(0.015, script, b, got)
        a.send(Packet(1000, (a.id, 1), (b.id, 7)))
        net.run(until=1.0)
        sink = [t for t, _ in b.got] if sink_cls is _Sink else None
        return got, sink

    def _both(self, sink_cls, script):
        mine = self._run(False, sink_cls, script)
        assert mine == self._run(True, sink_cls, script)
        return mine

    def test_a_bound_port_gets_its_datagram_at_arrival(self):
        got, _ = self._both(Host, lambda b, got: None)
        assert got["first"] == [pytest.approx(0.022)]

    def test_a_port_unbound_in_flight_drops_the_datagram(self):
        got, _ = self._both(Host, lambda b, got: b.unbind(7))
        assert got == {"first": [], "second": []}

    def test_a_port_unbound_in_flight_reaches_a_subclass_deliver(self):
        got, sink = self._both(_Sink, lambda b, got: b.unbind(7))
        assert got["first"] == [] and sink == [pytest.approx(0.022)]

    def test_a_port_rebound_in_flight_delivers_to_the_new_handler(self):
        def rebind(b, got):
            b.unbind(7)
            b.bind(7, lambda p: got["second"].append(b.sim.now))

        got, _ = self._both(Host, rebind)
        assert got == {"first": [], "second": [pytest.approx(0.022)]}

    def test_a_port_bound_after_an_unbind_gets_later_datagrams(self):
        def unbind_rebind_later(b, got):
            b.unbind(7)
            b.sim.schedule(0.1, b.bind, 7, lambda p: got["second"].append(b.sim.now))

        net, a, b = self._net()
        got = {"first": [], "second": []}
        b.bind(7, lambda p: got["first"].append(net.sim.now))
        unbind_rebind_later(b, got)
        a.send(Packet(1000, (a.id, 1), (b.id, 7)))  # arrives unbound
        net.sim.schedule_at(0.2, a.send, Packet(1000, (a.id, 1), (b.id, 7)))
        net.run(until=1.0)
        assert got == {"first": [], "second": [pytest.approx(0.222)]}

    def test_a_never_bound_port_reaches_a_subclass_deliver(self):
        net, a, b = self._net(_Sink)
        pkt = Packet(1000, (a.id, 1), (b.id, 9))
        a.send(pkt)
        net.run(until=1.0)
        assert b.got == [(pytest.approx(0.022), pkt)]
        assert 9 not in b.ports

    def test_a_packet_passing_through_a_host_is_forwarded(self):
        # a -> h -> c with hosts only: h forwards, and its own port 7
        # does not capture a datagram addressed to c's port 7.
        net = Network(default_jitter=0.0)
        a, h, c = net.add_host("a"), net.add_host("h"), net.add_host("c")
        net.add_link(a, h, 8e6, 0.01)
        net.add_link(h, c, 8e6, 0.01)
        net.finalize()
        at_h, at_c = [], []
        h.bind(7, at_h.append)
        c.bind(7, at_c.append)
        pkt = Packet(1000, (a.id, 1), (c.id, 7))
        a.send(pkt)
        net.run(until=1.0)
        assert at_h == [] and at_c == [pkt] and pkt.hops == 2

    def test_a_tcp_agents_port_is_reached_as_through_receive(self):
        from repro.tcp.agent import start_tcp_flow

        def transfer(via_receive):
            top = path_topology(10e6, 0.01, seed=3)
            if via_receive:
                _via_receive(top.net)
            flow = start_tcp_flow(top.net, top.src, top.dst, nbytes=200_000)
            assert top.dst.ports[flow.sink.port.port].func == flow.sink.port._on_packet
            top.net.run(until=2.0)
            return (
                flow.done, flow.finish_time, flow.delivered_bytes,
                flow.sender.stats.segs_sent, top.net.sim.events_processed,
            )

        got = transfer(False)
        assert got[0] and got[2] == 200_000
        assert got == transfer(True)

    def test_a_wrapped_bind_sees_every_delivery(self, monkeypatch):
        """A handler wrapped at ``bind`` (as a tracing harness wraps it) is
        what the slot calls: it sees every datagram the endpoints count."""
        from functools import partial

        from repro.udt import start_udt_flow

        seen = []

        def counting(handler, pkt):
            seen.append(pkt)
            handler(pkt)

        bind = Host.bind
        monkeypatch.setattr(
            Host, "bind", lambda host, port, h: bind(host, port, partial(counting, h))
        )
        top = path_topology(50e6, 0.01, seed=2)
        flow = start_udt_flow(top.net, top.src, top.dst)
        top.net.run(until=0.5)
        received = flow._src_ep.datagrams_received + flow._dst_ep.datagrams_received
        assert received > 1000 and len(seen) == received


class TestTopologies:
    def test_bdp_and_queue_rules(self):
        assert bdp_packets(1e9, 0.1) == 8334
        assert paper_queue_size(1e6, 0.001) == 100  # floor at 100
        assert paper_queue_size(1e9, 0.1) == 8334

    def test_dumbbell_structure(self):
        d = dumbbell(3, 100e6, 0.02)
        assert len(d.sources) == len(d.sinks) == 3
        # every source routes to every sink via the bottleneck routers
        for s, k in zip(d.sources, d.sinks):
            assert s.routes[k.id].dst is d.left

    def test_dumbbell_rtt(self):
        d = dumbbell(1, 100e6, 0.02)
        # one-way propagation ~ rtt/2
        total = (
            d.net.links[(d.sources[0].id, d.left.id)].delay
            + d.bottleneck.delay
            + d.net.links[(d.right.id, d.sinks[0].id)].delay
        )
        assert total == pytest.approx(0.01, rel=0.01)

    def test_join_topology_asymmetric_rtts(self):
        j = join_topology(rtt_a=0.1, rtt_b=0.001)
        la = j.net.links[(j.src_a.id, j.gateway.id)]
        lb = j.net.links[(j.src_b.id, j.gateway.id)]
        assert la.delay == pytest.approx(0.05)
        assert lb.delay == pytest.approx(0.0005)

    def test_path_topology_cross_sources(self):
        t = path_topology(1e8, 0.02, cross_sources=2)
        crosses = [n for n in t.net.nodes.values() if n.name.startswith("cross")]
        assert len(crosses) == 2
        for x in crosses:
            assert t.dst.id in x.routes

    def test_multi_bottleneck(self):
        m = multi_bottleneck(3, 1e8, 0.01)
        assert len(m.bottlenecks) == 3
        long_src, long_dst = m.sources[0], m.sinks[0]
        # the long flow's first hop is router 0
        assert long_src.routes[long_dst.id].dst is m.routers[0]
        with pytest.raises(ValueError):
            multi_bottleneck(1, 1e8, 0.01)
