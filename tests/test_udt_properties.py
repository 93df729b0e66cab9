"""Property-based end-to-end invariants of the UDT protocol.

Whatever the path looks like (loss, delay, rate, buffer geometry), a
finite transfer must deliver exactly its bytes, in order, with the
protocol state quiescing afterwards.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.topology import path_topology
from repro.udt import UdtConfig, start_udt_flow
from repro.udt import packets as P
from repro.udt.core import UdtCore
from repro.udt.nakcodec import encode as nak_encode
from repro.udt.params import MAX_SEQ_NO
from repro.udt.seqno import seq_inc, seq_off
from tests.test_udt_core_units import ManualScheduler


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    loss=st.sampled_from([0.0, 0.001, 0.01, 0.05]),
    rtt=st.sampled_from([0.002, 0.02, 0.1]),
    rate_mbps=st.sampled_from([5, 20, 50]),
    nbytes=st.integers(min_value=1, max_value=400_000),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_transfer_is_exactly_once_in_order(loss, rtt, rate_mbps, nbytes, seed):
    top = path_topology(rate_mbps * 1e6, rtt, loss_rate=loss, seed=seed)
    f = start_udt_flow(top.net, top.src, top.dst, nbytes=nbytes)
    sizes = []
    inner = f.receiver.rcv_buffer._deliver

    def tap(size, data):
        inner(size, data)
        sizes.append(size)

    f.receiver.rcv_buffer._deliver = tap
    # Generous horizon: heavy loss on a slow link needs time.
    top.net.run(until=120.0)
    assert f.done, (
        f"transfer stalled: delivered {f.delivered_bytes}/{nbytes} "
        f"(loss={loss}, rtt={rtt}, rate={rate_mbps})"
    )
    assert sum(sizes) == nbytes
    # Exactly-once: the buffer never delivered a duplicate byte.
    assert f.receiver.rcv_buffer.delivered_bytes == nbytes
    # Quiescence: everything sent was eventually acknowledged.
    snd = f.sender
    top.net.run(until=top.net.sim.now + 5.0)
    assert seq_off(snd.snd_last_ack, snd.curr_seq) == 0
    assert len(f.receiver.rcv_loss) == 0


@settings(max_examples=10, deadline=None)
@given(
    rcv_buf=st.integers(min_value=8, max_value=64),
    snd_buf=st.integers(min_value=8, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_tiny_buffers_never_deadlock(rcv_buf, snd_buf, seed):
    cfg = UdtConfig(rcv_buffer_pkts=rcv_buf, snd_buffer_pkts=snd_buf)
    top = path_topology(20e6, 0.02, seed=seed)
    f = start_udt_flow(top.net, top.src, top.dst, config=cfg, nbytes=150_000)
    top.net.run(until=60.0)
    assert f.done
    assert f.delivered_bytes == 150_000


@settings(max_examples=8, deadline=None)
@given(
    mss=st.sampled_from([576, 1000, 1500, 4000]),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_any_mss_transfers_exactly(mss, seed):
    cfg = UdtConfig(mss=mss)
    top = path_topology(20e6, 0.02, loss_rate=0.005, seed=seed)
    f = start_udt_flow(top.net, top.src, top.dst, config=cfg, nbytes=200_000)
    top.net.run(until=60.0)
    assert f.done
    assert f.delivered_bytes == 200_000


# A hostile peer, between the sender's send ticks: ACKs at an offset from
# snd_last_ack (negative: stale; zero: repeated; past curr_seq: claiming
# data never sent) or anywhere in the sequence space, a replay of the last
# ACK, and NAK ranges from snd_last_ack or from just before the wrap.
_hostile = st.one_of(
    st.tuples(st.just("ack"), st.integers(-8, 40), st.booleans(), st.integers(0, 99)),
    st.tuples(st.just("ack_anywhere"), st.integers(0, MAX_SEQ_NO - 1)),
    st.tuples(st.just("replay")),
    st.tuples(st.just("nak"), st.booleans(), st.integers(-30, 90), st.integers(0, 60)),
    st.tuples(st.just("tick"), st.integers(1, 20)),
)


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(8, 64), ops=st.lists(_hostile, max_size=40))
def test_hostile_acks_leave_the_send_window_whole(capacity, ops):
    """Whatever ACKs and NAKs arrive, a sender across the sequence wrap
    keeps exactly [snd_last_ack, curr_seq) unacknowledged: bounded by its
    buffer, every packet in it retrievable, the loss list inside it.  The
    send buffer's length is that count (the send tick's window check
    reads it in place of ``seq_off(snd_last_ack, curr_seq)``)."""
    sched = ManualScheduler()
    wire = []
    cfg = UdtConfig(snd_buffer_pkts=capacity)
    a = UdtCore(cfg, sched, lambda m, s: wire.append((m, s)),
                init_seq=MAX_SEQ_NO - 8, name="a")
    b = UdtCore(cfg, sched, lambda m, s: a.on_datagram(m, s), name="b")
    b.listen()
    a.connect()
    while wire:
        b.on_datagram(*wire.pop(0))  # the handshake; b hears nothing more
    assert a.connected
    a.send_forever()
    sched.advance(0.001)
    wire.clear()
    last_ack = P.Ack(ack_no=1, recv_seq=a.snd_last_ack, light=True)
    for n, op in enumerate(ops):
        if op[0] == "ack":
            last_ack = P.Ack(ack_no=n, recv_seq=seq_inc(a.snd_last_ack, op[1]),
                             rtt_us=1000, buf_avail=op[3], light=op[2])
            a.on_datagram(last_ack, 40)
        elif op[0] == "ack_anywhere":
            last_ack = P.Ack(ack_no=n, recv_seq=op[1], light=True)
            a.on_datagram(last_ack, 24)
        elif op[0] == "replay":
            a.on_datagram(last_ack, 40)
        elif op[0] == "nak":
            base = MAX_SEQ_NO - 10 if op[1] else a.snd_last_ack
            first = seq_inc(base, op[2])
            a.on_datagram(P.Nak(loss=nak_encode([(first, seq_inc(first, op[3]))])), 24)
        else:
            sched.advance(sched.t + op[1] / 1000)
        wire.clear()  # the data is lost: only the forged control input arrives
        buf = a.snd_buffer
        outstanding = seq_off(a.snd_last_ack, a.curr_seq)
        assert buf.inflight_packets == outstanding <= capacity
        assert len(a.snd_loss) <= outstanding
        assert all(
            buf.lookup(seq_inc(a.snd_last_ack, i)) is not None
            for i in range(outstanding)
        )
        assert buf.lookup(a.curr_seq) is None
