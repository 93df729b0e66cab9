"""Packet records.

A packet is a lightweight slotted record; the transport-protocol message it
carries lives in ``payload`` (an arbitrary object owned by the protocol
layer, e.g. a :class:`repro.udt.packets.DataPacket`).  ``size`` is the full
on-wire size in bytes including all headers — links serialise by size only
and never look inside the payload.  ``uid`` is drawn from the simulator's
``packet_uids`` by whoever puts the packet on the wire; a packet built by
hand has none.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

#: IPv4 (20 B) + UDP (8 B) header overhead added by the datagram service.
IP_UDP_HEADER = 28

Address = Tuple[int, int]  # (node id, port)


class Packet:
    __slots__ = (
        "uid",
        "size",
        "src",
        "dst",
        "payload",
        "flow",
        "hops",
    )

    def __init__(
        self,
        size: int,
        src: Address,
        dst: Address,
        payload: Any = None,
        flow: Optional[int] = None,
        uid: Optional[int] = None,
    ):
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.uid = uid
        self.size = size
        self.src = src
        self.dst = dst
        self.payload = payload
        self.flow = flow
        self.hops = 0

    @property
    def dst_node(self) -> int:
        return self.dst[0]

    @property
    def dst_port(self) -> int:
        return self.dst[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.uid} {self.src}->{self.dst} {self.size}B "
            f"flow={self.flow} {self.payload!r}>"
        )
