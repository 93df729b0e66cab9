"""UDT packet formats.

Message objects double as the simulator payloads (no serialisation on the
fast path) and as real wire datagrams for the loopback runtime — every
message implements ``encode()``/``decode()`` with the UDT header layout:

* Data:    ``0 | seq(31)`` · msg-flags · timestamp(µs) · dest-socket-id
* Control: ``1 | type(15) | reserved`` · additional-info · timestamp · id

All multi-byte fields are network byte order.  The ACK body carries the
paper's §3.2/§3.4 feedback: next-expected sequence, RTT and its variance,
available receive buffer, packet arrival speed and estimated link capacity.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

from repro.udt.params import MAX_SEQ_NO, UDT_HEADER
from repro.udt.seqno import valid_seq

_CTRL_BIT = 1 << 31
_HDR = struct.Struct("!IIII")

# Control types (matching the reference implementation's numbering).
HANDSHAKE = 0
KEEPALIVE = 1
ACK = 2
NAK = 3
SHUTDOWN = 5
ACK2 = 6


def _check_seq(seq: int) -> int:
    if not valid_seq(seq):
        raise ValueError(f"bad sequence number {seq}")
    return seq


class DataPacket:
    """One fixed-size data segment.  ``size`` is the payload byte count.

    Hand-written with ``__slots__`` rather than a dataclass: one of these
    is allocated per data packet sent, so skipping the per-instance
    ``__dict__`` is a measurable win on long runs (and slots=True
    dataclasses need Python >= 3.10).
    """

    __slots__ = ("seq", "size", "ts", "dst_id", "data", "retransmitted")

    type_name: ClassVar[str] = "data"

    def __init__(
        self,
        seq: int,
        size: int,
        ts: int = 0,  # sender timestamp, microseconds
        dst_id: int = 0,
        data: Optional[bytes] = None,  # real payload (live mode); None in sim
        retransmitted: bool = False,
    ):
        self.seq = seq
        self.size = size
        self.ts = ts
        self.dst_id = dst_id
        self.data = data
        self.retransmitted = retransmitted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataPacket(seq={self.seq}, size={self.size}, ts={self.ts}, "
            f"dst_id={self.dst_id}, retransmitted={self.retransmitted})"
        )

    @property
    def wire_size(self) -> int:
        return UDT_HEADER + self.size

    def encode(self) -> bytes:
        flags = 1 if self.retransmitted else 0
        body = self.data if self.data is not None else b"\x00" * self.size
        if len(body) != self.size:
            raise ValueError("payload length mismatch")
        return _HDR.pack(_check_seq(self.seq), flags, self.ts, self.dst_id) + body


@dataclass
class ControlPacket:
    ts: int = 0
    dst_id: int = 0

    ctrl_type: ClassVar[int] = -1
    type_name: ClassVar[str] = "ctrl"

    @property
    def wire_size(self) -> int:
        return UDT_HEADER + len(self._body())

    def _info(self) -> int:
        return 0

    def _body(self) -> bytes:
        return b""

    def encode(self) -> bytes:
        word0 = _CTRL_BIT | (self.ctrl_type << 16)
        return _HDR.pack(word0, self._info(), self.ts, self.dst_id) + self._body()


@dataclass
class Handshake(ControlPacket):
    version: int = 4
    init_seq: int = 0
    mss: int = 1500
    flow_window: int = 8192
    req_type: int = 1  # 1 = request, -1 = response
    socket_id: int = 0

    ctrl_type: ClassVar[int] = HANDSHAKE
    type_name: ClassVar[str] = "handshake"

    _FMT: ClassVar[struct.Struct] = struct.Struct("!IIIIiI")

    def _body(self) -> bytes:
        return self._FMT.pack(
            self.version,
            _check_seq(self.init_seq),
            self.mss,
            self.flow_window,
            self.req_type,
            self.socket_id,
        )


@dataclass
class Ack(ControlPacket):
    """Timer-based selective acknowledgement (§3.1)."""

    ack_no: int = 0  # this ACK's own serial number (for ACK2 pairing)
    recv_seq: int = 0  # next expected sequence number (all prior received)
    rtt_us: int = 0
    rtt_var_us: int = 0
    buf_avail: int = 0  # receiver buffer space, packets
    recv_speed: int = 0  # packets/second (0 = unknown)
    capacity: int = 0  # packets/second (0 = unknown)
    light: bool = False  # light ACK: no rate/capacity fields

    ctrl_type: ClassVar[int] = ACK
    type_name: ClassVar[str] = "ack"

    _FMT: ClassVar[struct.Struct] = struct.Struct("!IIIIII")

    def _info(self) -> int:
        return self.ack_no

    def _body(self) -> bytes:
        if self.light:
            return struct.pack("!I", _check_seq(self.recv_seq))
        return self._FMT.pack(
            _check_seq(self.recv_seq),
            self.rtt_us,
            self.rtt_var_us,
            self.buf_avail,
            self.recv_speed,
            self.capacity,
        )


@dataclass
class Ack2(ControlPacket):
    ack_no: int = 0

    ctrl_type: ClassVar[int] = ACK2
    type_name: ClassVar[str] = "ack2"

    def _info(self) -> int:
        return self.ack_no


@dataclass
class Nak(ControlPacket):
    """Negative acknowledgement carrying a compressed loss report."""

    loss: List[int] = field(default_factory=list)  # encoded words (nakcodec)

    ctrl_type: ClassVar[int] = NAK
    type_name: ClassVar[str] = "nak"

    def _body(self) -> bytes:
        return struct.pack(f"!{len(self.loss)}I", *self.loss)


@dataclass
class KeepAlive(ControlPacket):
    ctrl_type: ClassVar[int] = KEEPALIVE
    type_name: ClassVar[str] = "keepalive"


@dataclass
class Shutdown(ControlPacket):
    ctrl_type: ClassVar[int] = SHUTDOWN
    type_name: ClassVar[str] = "shutdown"


def decode(datagram: bytes) -> object:
    """Parse a wire datagram into the matching message object.

    ``datagram`` may be any bytes-like object.  A data packet's payload is
    copied into bytes of its own, so a socket reader may reuse the buffer
    it received into as soon as this returns.  Every malformed datagram
    raises :class:`ValueError`, whatever is wrong with it, so a socket
    reader needs to catch that one type only.
    """
    if len(datagram) < UDT_HEADER:
        raise ValueError(f"short datagram ({len(datagram)} bytes)")
    w0, info, ts, dst_id = _HDR.unpack_from(datagram)
    body = datagram[UDT_HEADER:]
    if not w0 & _CTRL_BIT:
        return DataPacket(
            seq=w0 & (MAX_SEQ_NO - 1),
            size=len(body),
            ts=ts,
            dst_id=dst_id,
            data=bytes(body),  # no copy when ``body`` is already bytes
            retransmitted=bool(info & 1),
        )
    ctype = (w0 >> 16) & 0x7FFF
    try:
        if ctype == HANDSHAKE:
            v, iseq, mss, fw, req, sid = Handshake._FMT.unpack(body)
            return Handshake(ts, dst_id, v, iseq, mss, fw, req, sid)
        if ctype == ACK:
            if len(body) == 4:
                (recv_seq,) = struct.unpack("!I", body)
                return Ack(ts, dst_id, ack_no=info, recv_seq=recv_seq, light=True)
            rs, rtt, var, buf, spd, cap = Ack._FMT.unpack(body)
            return Ack(ts, dst_id, info, rs, rtt, var, buf, spd, cap)
        if ctype == NAK:
            n = len(body) // 4
            return Nak(ts, dst_id, list(struct.unpack(f"!{n}I", body)))
    except struct.error as exc:  # a control body of the wrong length
        raise ValueError(f"malformed control type {ctype}: {exc}") from None
    if ctype == ACK2:
        return Ack2(ts, dst_id, ack_no=info)
    if ctype == KEEPALIVE:
        return KeepAlive(ts, dst_id)
    if ctype == SHUTDOWN:
        return Shutdown(ts, dst_id)
    raise ValueError(f"unknown control type {ctype}")
