"""Nodes: hosts (datagram endpoints) and routers (store-and-forward).

Forwarding is by destination node id through a static routing table
(``routes[dst_node] -> Link``) installed by :class:`repro.sim.topology.Network`.
A link into a router carries a copy of the router's table and hands a
passing packet to the next link itself (``Link.next_hop``), so
``Router.receive`` runs only for packets that table does not name.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet


class Node:
    __slots__ = (
        "sim",
        "id",
        "name",
        "routes",
        "pkts_unroutable",
    )

    def __init__(self, sim: Simulator, node_id: int, name: str = ""):
        self.sim = sim
        self.id = node_id
        self.name = name or f"n{node_id}"
        self.routes: Dict[int, Link] = {}
        self.pkts_unroutable = 0

    # receive() runs once per packet per hop — the single hottest call in
    # any experiment — so Host/Router override it with flattened bodies
    # (no receive->deliver/forward call chain, no dst_node property).
    def receive(self, pkt: Packet) -> None:
        if pkt.dst[0] == self.id:
            self.deliver(pkt)
        else:
            self.forward(pkt)

    def forward(self, pkt: Packet) -> None:
        link = self.routes.get(pkt.dst[0])
        if link is None:
            self.pkts_unroutable += 1
            return
        link.send(pkt)

    def deliver(self, pkt: Packet) -> None:
        """Hand a packet addressed to this node to a local endpoint."""
        raise NotImplementedError

    def send(self, pkt: Packet) -> bool:
        """Originate a packet from this node (loopback short-circuits)."""
        if pkt.dst[0] == self.id:
            # Local delivery still takes one event so callers never re-enter.
            self.sim.post(0.0, self.receive, pkt)
            return True
        link = self.routes.get(pkt.dst[0])
        if link is None:
            self.pkts_unroutable += 1
            return False
        return link.send(pkt)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class Router(Node):
    """Pure store-and-forward node; delivering to a router is an error."""

    __slots__ = ()

    def receive(self, pkt: Packet) -> None:
        dst_node = pkt.dst[0]
        if dst_node == self.id:
            self.deliver(pkt)
            return
        link = self.routes.get(dst_node)
        if link is None:
            self.pkts_unroutable += 1
            return
        link.send(pkt)

    def deliver(self, pkt: Packet) -> None:
        raise RuntimeError(f"packet addressed to router {self.name}: {pkt!r}")


class Host(Node):
    """End host: demultiplexes delivered packets to bound ports."""

    __slots__ = ("_ports",)

    def __init__(self, sim: Simulator, node_id: int, name: str = ""):
        super().__init__(sim, node_id, name)
        self._ports: Dict[int, Callable[[Packet], None]] = {}

    def bind(self, port: int, handler: Callable[[Packet], None]) -> None:
        if port in self._ports:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._ports[port] = handler

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    def next_free_port(self, start: int = 49152) -> int:
        port = start
        while port in self._ports:
            port += 1
        return port

    def receive(self, pkt: Packet) -> None:
        dst = pkt.dst
        if dst[0] == self.id:
            handler = self._ports.get(dst[1])
            if handler is not None:
                handler(pkt)
            else:
                # No bound port: defer to deliver() so subclasses that
                # override it (test sinks, raw consumers) still see the
                # packet; the base implementation drops it silently.
                self.deliver(pkt)
            return
        link = self.routes.get(dst[0])
        if link is None:
            self.pkts_unroutable += 1
            return
        link.send(pkt)

    def deliver(self, pkt: Packet) -> None:
        handler = self._ports.get(pkt.dst[1])
        if handler is not None:
            handler(pkt)
        # Unbound port: silently dropped, like a real host with no listener.
