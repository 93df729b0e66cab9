"""Failure-injection tests: the protocol survives hostile control planes.

Each test wraps an endpoint's transmit path with a fault injector
(dropping, duplicating or reordering specific message types) and checks
the transfer still completes exactly once.
"""

import random

from repro.obs.bus import CONN_CONNECTED
from repro.sim.topology import path_topology
from repro.udt import start_udt_flow
from tests._collect import Collector
from tests.test_udt_properties import connected_state


def wrap_transmit(core, fault):
    """Interpose ``fault(msg, size, forward)`` on a core's transmit."""
    original = core._transmit

    def wrapped(msg, size):
        fault(msg, size, original)

    core._transmit = wrapped


def test_handshake_response_lost_then_retried():
    top = path_topology(10e6, 0.02)
    f = start_udt_flow(top.net, top.src, top.dst, nbytes=50_000)
    dropped = {"n": 0}

    def fault(msg, size, forward):
        if msg.type_name == "handshake" and dropped["n"] < 2:
            dropped["n"] += 1
            return  # eat the first two handshake replies
        forward(msg, size)

    wrap_transmit(f.receiver, fault)
    top.net.run(until=10.0)
    assert dropped["n"] == 2
    assert f.done and f.delivered_bytes == 50_000


def test_all_naks_dropped_exp_timer_recovers():
    top = path_topology(10e6, 0.02, loss_rate=0.01, seed=2)
    f = start_udt_flow(top.net, top.src, top.dst, nbytes=300_000)

    def fault(msg, size, forward):
        if msg.type_name == "nak":
            return
        forward(msg, size)

    wrap_transmit(f.receiver, fault)
    top.net.run(until=120.0)
    assert f.done and f.delivered_bytes == 300_000
    assert f.sender.stats.naks_received == 0
    assert f.sender.stats.exp_events > 0  # EXP did the recovery


def test_every_second_ack_dropped():
    top = path_topology(10e6, 0.02)
    f = start_udt_flow(top.net, top.src, top.dst, nbytes=400_000)
    counter = {"n": 0}

    def fault(msg, size, forward):
        if msg.type_name == "ack":
            counter["n"] += 1
            if counter["n"] % 2 == 0:
                return
        forward(msg, size)

    wrap_transmit(f.receiver, fault)
    top.net.run(until=30.0)
    assert f.done and f.delivered_bytes == 400_000


def test_ack2_blackhole_keeps_default_rtt():
    top = path_topology(10e6, 0.05)
    f = start_udt_flow(top.net, top.src, top.dst, nbytes=200_000)

    def fault(msg, size, forward):
        if msg.type_name == "ack2":
            return
        forward(msg, size)

    wrap_transmit(f.sender, fault)
    top.net.run(until=30.0)
    assert f.done and f.delivered_bytes == 200_000


def test_duplicated_data_is_delivered_once():
    top = path_topology(10e6, 0.02, seed=5)
    f = start_udt_flow(top.net, top.src, top.dst, nbytes=150_000)
    rng = random.Random(0)

    def fault(msg, size, forward):
        forward(msg, size)
        if msg.type_name == "data" and rng.random() < 0.2:
            forward(msg, size)  # duplicate 20% of data packets

    wrap_transmit(f.sender, fault)
    top.net.run(until=30.0)
    assert f.done
    assert f.delivered_bytes == 150_000
    assert f.receiver.rcv_buffer.duplicates > 0


def test_reordered_data_is_delivered_in_order():
    top = path_topology(10e6, 0.02, seed=7)
    f = start_udt_flow(top.net, top.src, top.dst, nbytes=150_000)
    held = []
    rng = random.Random(1)

    def fault(msg, size, forward):
        if msg.type_name == "data" and rng.random() < 0.1 and not held:
            held.append((msg, size))  # hold one packet back...
            return
        forward(msg, size)
        if held and rng.random() < 0.5:
            m, s = held.pop()
            forward(m, s)  # ...and release it late (out of order)

    wrap_transmit(f.sender, fault)
    sizes = []
    inner = f.receiver.rcv_buffer._deliver

    def tap(size, data):
        inner(size, data)
        sizes.append(size)

    f.receiver.rcv_buffer._deliver = tap
    top.net.run(until=60.0)
    assert f.done
    assert sum(sizes) == 150_000


def test_corrupt_nak_report_is_ignored():
    from repro.udt.packets import Nak

    top = path_topology(10e6, 0.02)
    f = start_udt_flow(top.net, top.src, top.dst, nbytes=100_000)
    top.net.run(until=1.0)
    # Inject a NAK whose report is syntactically invalid.
    f.sender.on_datagram(Nak(loss=[5 | (1 << 31)]), 20)  # dangling flag
    top.net.run(until=10.0)
    assert f.done and f.delivered_bytes == 100_000


def test_late_handshakes_and_unknown_ack2s_mid_transfer():
    """Both ends of a simulated transfer hear, mid-flight, every
    handshake that connected them again, a forged request and response,
    and ACK2s for ack numbers never issued or already matched: each is
    absorbed without touching connected state, and the transfer ends
    exactly with one ``conn.connected`` per end."""
    from repro.udt.packets import Ack2, Handshake

    top = path_topology(10e6, 0.02)
    connects = Collector()
    top.net.sim.bus.subscribe(connects, kinds=[CONN_CONNECTED])
    f = start_udt_flow(top.net, top.src, top.dst, nbytes=300_000)
    handshakes = []

    def keep(msg, size, forward):
        if msg.type_name == "handshake":
            handshakes.append(msg)
        forward(msg, size)

    wrap_transmit(f.sender, keep)
    wrap_transmit(f.receiver, keep)
    top.net.run(until=0.1)
    assert f.sender.connected and f.receiver.connected
    assert f.receiver._ack_no > 1  # ACK2s have been matched already
    for core in (f.sender, f.receiver):
        forged = handshakes + [
            Handshake(req_type=r, init_seq=12345, mss=576, flow_window=2)
            for r in (1, -1)
        ] + [Ack2(ack_no=n) for n in (0, 1, core._ack_no + 1, 2**31 - 1)]
        for msg in forged:
            if msg.type_name == "ack2":
                assert msg.ack_no not in core._ack_window
            before = connected_state(core)
            core.on_datagram(msg, msg.wire_size)
            assert connected_state(core) == before
    top.net.run(until=20.0)
    assert f.done and f.delivered_bytes == 300_000
    assert sorted(ev.src for ev in connects) == sorted(
        [f.sender.name, f.receiver.name]
    )
