"""Unit + property tests for send/receive buffers and overlapped IO."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.udt import packets as P
from repro.udt.buffers import ReceiveBuffer, SendBuffer
from repro.udt.params import MAX_SEQ_NO
from repro.udt.seqno import seq_inc
from tests._reference_buffers import ReceiveBuffer as ReferenceReceiveBuffer
from tests._reference_buffers import SendBuffer as ReferenceSendBuffer


class TestSendBuffer:
    def test_packetises_at_payload_size(self):
        b = SendBuffer(10, 1456)
        assert b.add(3000) == 3000
        assert b.packetise(0) == 1456
        assert b.packetise(1) == 1456
        assert b.packetise(2) == 88  # remainder
        assert b.packetise(3) is None

    def test_capacity_limits_accept(self):
        b = SendBuffer(2, 1000)
        assert b.add(10_000) == 2000
        assert b.add(1) == 0

    def test_ack_frees_space(self):
        b = SendBuffer(2, 1000)
        b.add(2000)
        b.packetise(0)
        b.packetise(1)
        assert b.add(500) == 0
        assert b.ack_upto(1) == 1  # releases seq 0 only
        assert b.add(500) == 500

    def test_lookup_for_retransmission(self):
        b = SendBuffer(4, 1000)
        b.add(1500)
        b.packetise(7)
        b.packetise(8)
        assert b.lookup(7) == (1000, None)
        assert b.lookup(8) == (500, None)
        b.ack_upto(8)
        assert b.lookup(7) is None
        assert b.lookup(8) is not None

    def test_real_data_round_trip(self):
        b = SendBuffer(4, 4)
        payload = b"abcdefghij"
        b.add(len(payload), payload)
        sizes = [b.packetise(s) for s in (0, 1, 2)]
        assert sizes == [4, 4, 2]
        data = b"".join(b.lookup(s)[1] for s in (0, 1, 2))
        assert data == payload

    def test_packetising_one_large_add_copies_no_remainder(self):
        """Each packet is a view of the caller's bytes: packetising one
        4 MB ``add`` never holds more than a few packets' worth at once."""
        payload = bytes(range(256)) * (4 << 12)
        b = SendBuffer(4096, 1456)
        tracemalloc.start()
        try:
            assert b.add(len(payload), payload) == len(payload)
            seq = sent = 0
            while (entry := b.next_packet(seq)) is not None:
                assert entry[1] == payload[sent:sent + entry[0]]
                sent += entry[0]
                seq = seq_inc(seq)
                b.ack_upto(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sent == len(payload)
        assert peak < 8 * 1456

    def test_unacknowledged_packets_cost_a_deque_slot_each(self):
        """The window is one deque, and every full-size packet without
        payload shares one entry: 10 000 unacknowledged packets across
        the sequence wrap cost at most 16 B each (a map by sequence
        number, with a tuple per packet, cost 125 B)."""
        n = 10_000
        b = SendBuffer(n, 1456)
        seq = MAX_SEQ_NO - n // 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(n):
                assert b.next_packet(seq, 1456) == (1456, None)
                seq = seq_inc(seq)
            per_packet = (tracemalloc.get_traced_memory()[0] - base) / n
        finally:
            tracemalloc.stop()
        assert b.inflight_packets == n
        assert b.lookup(MAX_SEQ_NO - 1) == b.lookup(0) == (1456, None)
        assert b.lookup(seq) is None
        assert per_packet <= 16, per_packet

    def test_wraparound_ack(self):
        b = SendBuffer(8, 100)
        top = MAX_SEQ_NO - 2
        b.add(400)
        for i in range(4):
            b.packetise(seq_inc(top, i))
        assert b.ack_upto(seq_inc(top, 3)) == 3
        assert b.inflight_packets == 1

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            SendBuffer(2, 100).add(-1)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            SendBuffer(0, 100)


class TestReceiveBuffer:
    def _buf(self, cap=8):
        delivered = []
        rb = ReceiveBuffer(cap, lambda size, data: delivered.append((size, data)))
        rb.start(0)
        return rb, delivered

    def test_in_order_delivery(self):
        rb, out = self._buf()
        rb.on_data(0, 100)
        rb.on_data(1, 100)
        assert len(out) == 2
        assert rb.delivered_bytes == 200

    def test_reorders_gap(self):
        rb, out = self._buf()
        rb.on_data(0, 100)
        rb.on_data(2, 100)  # hole at 1
        assert len(out) == 1
        rb.on_data(1, 100)
        assert len(out) == 3
        assert rb.next_expected == 3

    def test_duplicate_rejected(self):
        rb, out = self._buf()
        rb.on_data(0, 100)
        assert not rb.on_data(0, 100)
        assert rb.duplicates == 1
        rb.on_data(2, 100)
        assert not rb.on_data(2, 100)  # held duplicate
        assert rb.duplicates == 2

    def test_overflow_rejected(self):
        rb, out = self._buf(cap=4)
        assert not rb.on_data(4, 100)  # offset 4 >= capacity 4
        assert rb.on_data(3, 100)

    def test_available_shrinks_with_held(self):
        rb, out = self._buf(cap=8)
        rb.on_data(3, 100)
        rb.on_data(5, 100)
        assert rb.available == 6

    def test_speculation_counters(self):
        rb, _ = self._buf()
        rb.on_data(0, 100)  # hit (expected 0)
        rb.on_data(1, 100)  # hit
        rb.on_data(3, 100)  # miss (loss of 2)
        rb.on_data(2, 100)  # miss (retransmission)
        rb.on_data(4, 100)  # hit again
        assert rb.speculation_hits == 3
        assert rb.speculation_misses == 2

    def test_overlapped_io_zero_copy_accounting(self):
        rb, _ = self._buf()
        rb.post_user_buffer(250)
        rb.on_data(0, 100)
        rb.on_data(1, 100)
        rb.on_data(2, 100)
        assert rb.zero_copy_bytes == 200
        assert rb.copied_bytes == 100

    def test_a_held_packet_keeps_its_bytes_when_the_datagram_buffer_is_reused(self):
        """Decoded from a view of one reused socket buffer (``repro.live``),
        an out-of-order packet still holds its own bytes on delivery."""
        rb, delivered = self._buf()
        buf = bytearray(64)

        def arrive(seq, payload):
            wire = P.DataPacket(seq=seq, size=len(payload), data=payload).encode()
            buf[:len(wire)] = wire
            pkt = P.decode(memoryview(buf)[:len(wire)])
            rb.on_data(pkt.seq, pkt.size, pkt.data)

        arrive(1, b"later")  # held: seq 0 is missing
        arrive(0, b"first")  # written over the same buffer
        assert delivered == [(5, b"first"), (5, b"later")]

    def test_not_started_raises(self):
        rb = ReceiveBuffer(4)
        with pytest.raises(RuntimeError):
            rb.on_data(0, 10)

    def test_wraparound_sequence_delivery(self):
        out = []
        rb = ReceiveBuffer(8, lambda s, d: out.append(s))
        start = MAX_SEQ_NO - 2
        rb.start(start)
        for i in range(5):
            rb.on_data(seq_inc(start, i), 10)
        assert len(out) == 5
        assert rb.next_expected == 3


@settings(max_examples=100)
@given(
    order=st.permutations(list(range(12))),
    sizes=st.lists(st.integers(1, 1456), min_size=12, max_size=12),
)
def test_receive_buffer_delivers_everything_in_order(order, sizes):
    """Whatever arrival order, delivery is exactly seq order, once each."""
    delivered = []
    rb = ReceiveBuffer(16, lambda size, data: delivered.append(size))
    rb.start(0)
    for seq in order:
        rb.on_data(seq, sizes[seq])
    assert delivered == sizes
    assert rb.delivered_packets == 12


# ---------------------------------------------------------------------------
# Differential tests against the frozen pre-fast-path buffers
# (tests/_reference_buffers.py): same inputs, same outputs, same counters.
# ---------------------------------------------------------------------------

_RCV_COUNTERS = (
    "next_expected", "_speculated", "unread_packets", "delivered_bytes",
    "delivered_packets", "duplicates", "speculation_hits", "speculation_misses",
    "zero_copy_bytes", "copied_bytes", "_user_buffer_bytes", "available",
    "held_packets",
)

# Offset from next_expected: behind it (duplicate), on it (in order, half
# of all arrivals), ahead of it (reordered), beyond the window (overflow).
_rcv_offsets = st.one_of(st.just(0), st.integers(-3, 10))

_rcv_data = st.tuples(
    st.just("data"), _rcv_offsets, st.integers(1, 1456), st.booleans()
)

_rcv_ops = st.one_of(
    _rcv_data,
    _rcv_data,  # twice: arrivals outnumber the other operations
    st.tuples(st.just("accepts"), _rcv_offsets),
    st.tuples(st.just("post"), st.integers(0, 4000)),
    st.tuples(st.just("read"), st.integers(0, 4)),
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 8),
    hold_for_app=st.booleans(),
    init_seq=st.sampled_from([0, 1000, MAX_SEQ_NO - 3]),
    ops=st.lists(_rcv_ops, max_size=60),
)
def test_receive_buffer_matches_frozen_reference(capacity, hold_for_app, init_seq, ops):
    pair = []
    for cls in (ReceiveBuffer, ReferenceReceiveBuffer):
        delivered = []
        rb = cls(
            capacity,
            lambda size, data, out=delivered: out.append((size, data)),
            hold_for_app=hold_for_app,
        )
        rb.start(init_seq)
        pair.append((rb, delivered))
    (new, new_out), (ref, ref_out) = pair
    for op in ops:
        if op[0] == "data":
            seq = seq_inc(ref.next_expected, op[1])
            data = bytes([op[1] & 0xFF]) * op[2] if op[3] else None
            assert new.on_data(seq, op[2], data) == ref.on_data(seq, op[2], data)
        elif op[0] == "accepts":
            seq = seq_inc(ref.next_expected, op[1])
            assert new.accepts(seq) == ref.accepts(seq)
        elif op[0] == "post":
            new.post_user_buffer(op[1])
            ref.post_user_buffer(op[1])
        else:
            assert new.app_read(op[1]) == ref.app_read(op[1])
        assert new_out == ref_out
        for name in _RCV_COUNTERS:
            assert getattr(new, name) == getattr(ref, name), name
        assert new._held == ref._held


_snd_ops = st.one_of(
    # kind of payload: size only, real bytes, fewer or more bytes than declared
    st.tuples(
        st.just("add"), st.integers(0, 40),
        st.sampled_from(["none", "exact", "short", "long"]),
    ),
    st.tuples(st.just("tick"), st.booleans()),  # the send tick; unlimited source?
    st.tuples(st.just("packetise")),
    # an ACK up to that many packets past the first unacknowledged one;
    # negative: a stale ACK, that many behind it
    st.tuples(st.just("ack"), st.integers(-3, 5)),
    st.tuples(st.just("lookup"), st.integers(-2, 6)),
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 5),
    payload_size=st.integers(1, 8),
    init_seq=st.sampled_from([0, MAX_SEQ_NO - 3]),
    ops=st.lists(_snd_ops, max_size=60),
)
def test_send_buffer_matches_frozen_reference(capacity, payload_size, init_seq, ops):
    new = SendBuffer(capacity, payload_size)
    ref = ReferenceSendBuffer(capacity, payload_size)
    seq = first_unacked = init_seq
    fill = 0
    for op in ops:
        if op[0] == "add":
            nbytes = op[1]
            length = {"none": None, "exact": nbytes, "short": nbytes // 2,
                      "long": nbytes + 3}[op[2]]
            data = None
            if length is not None:
                data = bytes((fill + i) & 0xFF for i in range(length))
                fill += length
            assert new.add(nbytes, data) == ref.add(nbytes, data)
        elif op[0] == "tick":
            # UdtCore._try_send_one's new-data branch as it was ...
            want = None
            if ref.has_data or op[1]:
                if not ref.has_data:
                    ref.add(payload_size)
                size = ref.packetise(seq)
                if size is not None:
                    want = (size, ref.lookup(seq)[1])
            # ... and as it is.
            got = new.next_packet(seq, payload_size if op[1] else 0)
            assert got == want
            if want is not None:
                seq = seq_inc(seq)
        elif op[0] == "packetise":
            got = new.packetise(seq)
            assert got == ref.packetise(seq)
            if got is not None:
                seq = seq_inc(seq)
        elif op[0] == "ack" and op[1] < 0:
            stale = seq_inc(first_unacked, op[1])
            assert new.ack_upto(stale) == ref.ack_upto(stale) == 0
        elif op[0] == "ack":
            upto = seq_inc(first_unacked, min(op[1], ref.inflight_packets))
            assert new.ack_upto(upto) == ref.ack_upto(upto)
            first_unacked = upto
        else:
            probe = seq_inc(first_unacked, op[1])
            assert new.lookup(probe) == ref.lookup(probe)
        assert new._pending_bytes == ref._pending_bytes
        assert list(new._pending_data) == ref._pending_data  # views == bytes
        assert [new.lookup(q) for q in ref._order] == [
            ref._inflight[q] for q in ref._order
        ]
        assert new.free_packets() == ref.free_packets()
        assert new.inflight_packets == ref.inflight_packets
