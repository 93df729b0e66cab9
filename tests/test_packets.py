"""Unit + property tests for UDT wire formats."""

import pytest
from hypothesis import given, strategies as st

from repro.udt import packets as P
from repro.udt.nakcodec import encode as nak_encode
from repro.udt.params import MAX_SEQ_NO, UDT_HEADER

seqs = st.integers(min_value=0, max_value=MAX_SEQ_NO - 1)


def test_data_packet_roundtrip():
    pkt = P.DataPacket(seq=12345, size=4, ts=999, dst_id=7, data=b"abcd")
    out = P.decode(pkt.encode())
    assert isinstance(out, P.DataPacket)
    assert (out.seq, out.size, out.ts, out.dst_id, out.data) == (
        12345,
        4,
        999,
        7,
        b"abcd",
    )


def test_data_retransmit_flag_roundtrip():
    pkt = P.DataPacket(seq=1, size=1, data=b"x", retransmitted=True)
    assert P.decode(pkt.encode()).retransmitted


def test_data_wire_size():
    pkt = P.DataPacket(seq=0, size=1456)
    assert pkt.wire_size == UDT_HEADER + 1456
    assert len(P.DataPacket(seq=0, size=10, data=b"0123456789").encode()) == 26


def test_data_payload_length_mismatch():
    with pytest.raises(ValueError):
        P.DataPacket(seq=0, size=5, data=b"xy").encode()


def test_handshake_roundtrip():
    hs = P.Handshake(
        ts=1, init_seq=77, mss=9000, flow_window=4096, req_type=-1, socket_id=3
    )
    out = P.decode(hs.encode())
    assert isinstance(out, P.Handshake)
    assert out.init_seq == 77
    assert out.mss == 9000
    assert out.flow_window == 4096
    assert out.req_type == -1


def test_ack_roundtrip():
    ack = P.Ack(
        ack_no=9,
        recv_seq=100,
        rtt_us=110_000,
        rtt_var_us=5_000,
        buf_avail=512,
        recv_speed=8000,
        capacity=83000,
    )
    out = P.decode(ack.encode())
    assert isinstance(out, P.Ack)
    assert out.ack_no == 9
    assert out.recv_seq == 100
    assert out.rtt_us == 110_000
    assert out.capacity == 83000
    assert not out.light


def test_light_ack_roundtrip():
    ack = P.Ack(ack_no=3, recv_seq=50, light=True)
    out = P.decode(ack.encode())
    assert out.light and out.recv_seq == 50


def test_nak_roundtrip_with_compressed_loss():
    words = nak_encode([(3, 6), (9, 9)])
    nak = P.Nak(loss=words)
    out = P.decode(nak.encode())
    assert isinstance(out, P.Nak)
    assert out.loss == words


def test_ack2_keepalive_shutdown_roundtrip():
    for msg, cls in [
        (P.Ack2(ack_no=4), P.Ack2),
        (P.KeepAlive(), P.KeepAlive),
        (P.Shutdown(), P.Shutdown),
    ]:
        out = P.decode(msg.encode())
        assert isinstance(out, cls)


def test_short_datagram_rejected():
    with pytest.raises(ValueError):
        P.decode(b"123")


def test_bad_seqno_rejected():
    with pytest.raises(ValueError):
        P.DataPacket(seq=MAX_SEQ_NO, size=1, data=b"x").encode()


@given(seqs, st.binary(min_size=0, max_size=64), st.integers(0, 2**32 - 1))
def test_data_roundtrip_property(seq, payload, ts):
    pkt = P.DataPacket(seq=seq, size=len(payload), ts=ts, data=payload)
    if len(payload) == 0:
        return  # zero-size data packets are not legal on the wire
    out = P.decode(pkt.encode())
    assert out.seq == seq and out.data == payload and out.ts == ts


def test_control_vs_data_discrimination():
    # A data packet whose seq has the top bit clear must never parse as control.
    data = P.DataPacket(seq=MAX_SEQ_NO - 1, size=1, data=b"z")
    assert isinstance(P.decode(data.encode()), P.DataPacket)


_EVERY_TYPE = {
    "data": P.DataPacket(seq=12345, size=4, ts=999, dst_id=7, data=b"abcd"),
    "handshake": P.Handshake(ts=1, init_seq=77, mss=9000, flow_window=4096,
                             req_type=-1, socket_id=3),
    "ack": P.Ack(ack_no=9, recv_seq=100, rtt_us=110_000, rtt_var_us=5_000,
                 buf_avail=512, recv_speed=8000, capacity=83000),
    "light-ack": P.Ack(ack_no=3, recv_seq=50, light=True),
    "nak": P.Nak(loss=nak_encode([(3, 6), (9, 9)])),
    "ack2": P.Ack2(ack_no=4),
    "keepalive": P.KeepAlive(),
    "shutdown": P.Shutdown(),
}


@pytest.mark.parametrize("name", sorted(_EVERY_TYPE))
def test_every_prefix_and_byte_flip_fails_one_way(name):
    """Damage anywhere: a message, or ``ValueError`` — the one type a
    socket reader (``repro.live``) catches; never ``struct.error``.  The
    same holds, with the same outcome, for a view of the damaged bytes
    (what ``repro.live`` hands over from its one receive buffer)."""
    data = _EVERY_TYPE[name].encode()
    variants = [data[:n] for n in range(len(data))] + [
        data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]
        for i in range(len(data))
        for mask in range(1, 256)
    ]
    refused = 0
    for damaged in variants:
        outcomes = []
        for wire in (damaged, memoryview(damaged)):
            try:
                msg = P.decode(wire)
                if isinstance(msg, P.DataPacket):  # slots, no __eq__
                    msg = [getattr(msg, k) for k in P.DataPacket.__slots__]
                outcomes.append(msg)
            except ValueError:
                outcomes.append(ValueError)
        assert outcomes[0] == outcomes[1]
        refused += outcomes[0] is ValueError
    assert refused >= UDT_HEADER  # at least every prefix short of a header
