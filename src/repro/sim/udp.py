"""Unreliable datagram service — the substrate UDT rides on.

``UdpEndpoint`` mirrors the sockets API shape the paper's implementation
uses: bind to a host/port, ``sendto`` best-effort datagrams (or
``connect`` to one peer and ``send``), receive via a callback.  On-wire
size = payload size + 28 bytes of IP/UDP headers; the simulator applies
queueing, loss and delay; there is no reliability,
ordering, or congestion control here — exactly UDP's contract.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.node import Host
from repro.sim.packet import IP_UDP_HEADER, Address, Packet

Handler = Callable[[Any, Address, int], None]  # (payload, src_addr, size)
DatagramHandler = Callable[[Any, int], None]  # (payload, size)


class UdpEndpoint:
    __slots__ = (
        "host",
        "sim",
        "port",
        "_handler",
        "_datagram_handler",
        "_closed",
        "_addr",
        "_peer",
        "_flow",
        "_last_size",
        "_last_wire",
        "bytes_sent",
        "datagrams_sent",
        "datagrams_received",
    )

    def __init__(self, host: Host, port: Optional[int] = None):
        self.host = host
        self.sim = host.sim
        if port is None:
            port = host.next_free_port()
        self.port = port
        self._handler: Optional[Handler] = None
        self._datagram_handler: Optional[DatagramHandler] = None
        host.bind(port, self._on_packet)
        self._closed = False
        self._addr: Address = (host.id, port)
        self._peer: Optional[Address] = None
        self._flow: object = None
        # The last (payload size, wire size) pair ``send`` used: a bulk
        # transfer's full-size datagrams all share one wire-size int.
        self._last_size = 0
        self._last_wire = IP_UDP_HEADER
        self.bytes_sent = 0
        self.datagrams_sent = 0
        self.datagrams_received = 0

    @property
    def address(self) -> Address:
        return self._addr

    def on_receive(self, handler: Handler) -> None:
        self._handler = handler

    def on_datagram(self, handler: DatagramHandler) -> None:
        """Receive as ``handler(payload, size)``, without the source address.

        For a transport bound to one peer, whose input has this shape
        (``UdtCore.on_datagram``): the port reaches it without an
        argument-dropping frame in between.  Takes precedence over
        :meth:`on_receive`.
        """
        self._datagram_handler = handler

    def sendto(
        self,
        payload: Any,
        size: int,
        dst: Address,
        flow: object = None,
    ) -> bool:
        """Send a datagram whose application payload is ``size`` bytes."""
        if self._closed:
            raise RuntimeError("endpoint is closed")
        wire = size + IP_UDP_HEADER
        pkt = Packet(wire, self._addr, dst, payload, flow, next(self.sim.packet_uids))
        self.bytes_sent += wire
        self.datagrams_sent += 1
        host = self.host
        # Routes never name the node itself, so a hit is a remote
        # destination and Node.send would only repeat this lookup.
        link = host.routes.get(dst[0])
        if link is not None:
            return link.send(pkt)
        return host.send(pkt)  # loopback delivery, unroutable accounting

    def connect(self, dst: Address, flow: object = None) -> None:
        """Fix the peer, and the flow id its packets carry, for :meth:`send`:
        a connected socket, whose datagrams name neither."""
        if self._closed:
            raise RuntimeError("endpoint is closed")
        self._peer = dst
        self._flow = flow

    def send(self, payload: Any, size: int) -> bool:
        """Send a ``size``-byte datagram to the connected peer."""
        dst = self._peer
        if dst is None:
            raise RuntimeError(
                "endpoint is closed" if self._closed else "endpoint is not connected"
            )
        if size != self._last_size:
            self._last_size = size
            self._last_wire = size + IP_UDP_HEADER
        wire = self._last_wire
        pkt = Packet(wire, self._addr, dst, payload, self._flow, next(self.sim.packet_uids))
        self.bytes_sent += wire
        self.datagrams_sent += 1
        host = self.host
        link = host.routes.get(dst[0])  # as in sendto
        if link is not None:
            return link.send(pkt)
        return host.send(pkt)

    def close(self) -> None:
        if not self._closed:
            self.host.unbind(self.port)
            self._closed = True
            self._peer = None

    def _on_packet(self, pkt: Packet) -> None:
        self.datagrams_received += 1
        handler = self._datagram_handler
        if handler is not None:
            handler(pkt.payload, pkt.size - IP_UDP_HEADER)
        elif self._handler is not None:
            self._handler(pkt.payload, pkt.src, pkt.size - IP_UDP_HEADER)
