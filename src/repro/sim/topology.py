"""Topology construction.

:class:`Network` wraps a simulator plus nodes/links and provides the
canonical topologies of the paper:

* ``dumbbell``   — N sources, one bottleneck, N sinks (Figures 2–5, 7, 13).
* ``join``       — Figure 1: two sources with different RTTs sharing a
  bottleneck into one sink (also used for RTT fairness, Figure 6).
* ``path``       — a single source-to-sink path (Figures 8, 11, 15).
* ``multi_bottleneck`` — parking-lot chain for the max-min footnote ablation.

Every builder passes its ``seed``, ``fidelity`` and ``tie_break`` to the
:class:`Network` it builds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import FlowMonitor
from repro.sim.node import Host, Node, Router
from repro.sim.queues import DropTailQueue
from repro.sim.routing import compute_routes

if TYPE_CHECKING:
    from repro.sim.fluid import FluidController

#: Paper default: DropTail with queue size max(100, BDP in packets).
DEFAULT_QUEUE_PKTS = 100


def bdp_packets(rate_bps: float, rtt: float, mss: int = 1500) -> int:
    """Bandwidth-delay product in MSS-sized packets (rounded up, >= 1)."""
    return max(1, int(rate_bps * rtt / (8.0 * mss) + 0.999999))


def paper_queue_size(rate_bps: float, rtt: float, mss: int = 1500) -> int:
    """The paper's DropTail sizing rule: max(100, BDP)."""
    return max(DEFAULT_QUEUE_PKTS, bdp_packets(rate_bps, rtt, mss))


#: Deterministic spacing between "concurrent" flow starts.  Flows that
#: all start at exactly t=0 leave their handshakes tied in virtual time,
#: making run order depend on the engine's same-instant tie-break — the
#: determinism sanitizer (docs/ANALYSIS.md) flags that.  ~10 µs is far
#: below any RTT or rate-control period, so staggered flows are still
#: concurrent for every experiment's purposes.  The extra 2.13 ns pushes
#: the stagger off the decimal float grid: handshake delays and pacing
#: periods are round decimals, so an exactly-10 µs offset can re-align
#: two flows' timer grids later in the run (observed in
#: ablation-control-channel, where flow B's conn.connected tied with
#: flow A's paced send 0.1 s in).
FLOW_START_STAGGER = 1.000000213e-5


def flow_start(i: int) -> float:
    """Start time for the i-th concurrent flow of a scenario."""
    return i * FLOW_START_STAGGER


#: Recognised fidelity tiers: pure packet-level, or packet + fluid spans.
FIDELITIES = ("packet", "hybrid")


class Network:
    """A simulator plus its nodes and links.

    ``default_jitter`` is applied to every link unless overridden: a small
    zero-mean randomisation of serialisation times that breaks DropTail
    phase effects (deterministic two-flow simulations otherwise produce
    wildly distorted RTT-bias results; NS-2's randomised overhead serves
    the same purpose).

    ``fidelity`` selects the simulation tier: ``"packet"`` (every packet
    an event) or ``"hybrid"`` (steady bulk-transfer stretches advanced
    analytically by a :class:`~repro.sim.fluid.FluidController`; see
    docs/SIMULATION.md).  ``None`` reads ``REPRO_FIDELITY``, defaulting
    to packet: the benchmark harness picks its tier that way.
    ``tie_break`` goes to the simulator built here (:class:`Simulator`).
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        default_jitter: float = 0.1,
        fidelity: Optional[str] = None,
        tie_break: str = "fifo",
    ):
        if fidelity is None:
            fidelity = os.environ.get("REPRO_FIDELITY", "packet")
        if fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
        self.sim = sim if sim is not None else Simulator(seed=seed, tie_break=tie_break)
        self.nodes: Dict[int, Node] = {}
        self.links: Dict[Tuple[int, int], Link] = {}
        self.monitor = FlowMonitor(self.sim)
        self.default_jitter = default_jitter
        self.fidelity = fidelity
        self.fluid: Optional[FluidController] = None
        if self.fidelity == "hybrid":
            # Only a hybrid network loads the fluid tier.
            from repro.sim.fluid import FluidController

            self.fluid = FluidController(self)
        self._next_id = 0
        self._flow_counts: Dict[str, int] = {}

    # -- construction ----------------------------------------------------
    def add_host(self, name: str = "") -> Host:
        node = Host(self.sim, self._next_id, name)
        self.nodes[node.id] = node
        self._next_id += 1
        return node

    def add_router(self, name: str = "") -> Router:
        node = Router(self.sim, self._next_id, name)
        self.nodes[node.id] = node
        self._next_id += 1
        return node

    def next_flow_id(self, prefix: str) -> str:
        """The default id of this network's next ``prefix`` flow: ``udt0``, ``udt1``, ..."""
        n = self._flow_counts.get(prefix, 0)
        self._flow_counts[prefix] = n + 1
        return f"{prefix}{n}"

    def add_link(
        self,
        a: Node,
        b: Node,
        rate_bps: float,
        delay: float,
        queue_pkts: Optional[int] = None,
        loss_rate: float = 0.0,
        mtu: Optional[int] = None,
        duplex: bool = True,
        queue_factory=None,
        jitter: Optional[float] = None,
    ) -> Tuple[Link, Optional[Link]]:
        """Create a link (by default both directions, each with its own queue)."""

        def make_queue() -> DropTailQueue:
            if queue_factory is not None:
                return queue_factory()
            return DropTailQueue(queue_pkts or DEFAULT_QUEUE_PKTS)

        j = self.default_jitter if jitter is None else jitter
        fwd = Link(self.sim, a, b, rate_bps, delay, make_queue(), loss_rate, mtu, jitter=j)
        self.links[(a.id, b.id)] = fwd
        rev = None
        if duplex:
            rev = Link(self.sim, b, a, rate_bps, delay, make_queue(), loss_rate, mtu, jitter=j)
            self.links[(b.id, a.id)] = rev
        return fwd, rev

    def finalize(self) -> "Network":
        """Compute static routes.  Call after topology construction.

        Routes are static from here to the next ``finalize()``.  Every
        link into a router gets that router's routes as its next-hop
        table, so forwarding costs no ``Router.receive`` call, and every
        link into a host that host's port slots, so a datagram for a
        bound port costs no ``Host.receive`` call; calling
        ``finalize()`` again (after ``add_link``) rebuilds both.
        """
        compute_routes(self.nodes, self.links)
        for link in self.links.values():
            far = link.dst
            link.next_hop = (
                {dst: nxt.send for dst, nxt in far.routes.items()}
                if isinstance(far, Router)
                else {}
            )
            link.ports = far.ports if isinstance(far, Host) else {}
        return self

    def run(self, until: float) -> None:
        if self.fluid is not None:
            self.fluid.on_run(until)
        self.sim.run(until=until)


@dataclass
class Dumbbell:
    net: Network
    sources: List[Host]
    sinks: List[Host]
    left: Router
    right: Router
    bottleneck: Link

    @property
    def sim(self) -> Simulator:
        return self.net.sim


def dumbbell(
    n_flows: int,
    rate_bps: float,
    rtt: float,
    access_rate: Optional[float] = None,
    queue_pkts: Optional[int] = None,
    access_delay: float = 1e-6,
    seed: int = 0,
    mtu: Optional[int] = None,
    loss_rate: float = 0.0,
    fidelity: Optional[str] = None,
    tie_break: str = "fifo",
) -> Dumbbell:
    """Classic dumbbell with the RTT concentrated on the bottleneck.

    ``access_rate`` defaults to 10x the bottleneck so sources are never
    access-limited; queue defaults to the paper's max(100, BDP) rule.
    """
    if n_flows < 1:
        raise ValueError("need at least one flow")
    net = Network(seed=seed, fidelity=fidelity, tie_break=tie_break)
    left = net.add_router("L")
    right = net.add_router("R")
    qsize = queue_pkts if queue_pkts is not None else paper_queue_size(rate_bps, rtt)
    # Propagation: bottleneck carries RTT/2 each way minus tiny access delays.
    bneck_delay = max(rtt / 2.0 - 2 * access_delay, 1e-9)
    bneck, _ = net.add_link(
        left, right, rate_bps, bneck_delay, queue_pkts=qsize, mtu=mtu,
        loss_rate=loss_rate,
    )
    acc = access_rate if access_rate is not None else rate_bps * 10
    sources, sinks = [], []
    for i in range(n_flows):
        s = net.add_host(f"src{i}")
        d = net.add_host(f"dst{i}")
        net.add_link(s, left, acc, access_delay, queue_pkts=max(qsize, 1000))
        net.add_link(right, d, acc, access_delay, queue_pkts=max(qsize, 1000))
        sources.append(s)
        sinks.append(d)
    net.finalize()
    return Dumbbell(net, sources, sinks, left, right, bneck)


@dataclass
class JoinTopology:
    """Figure 1: A --(rtt_a)--> C and B --(rtt_b)--> C share C's ingress."""

    net: Network
    src_a: Host
    src_b: Host
    sink: Host
    gateway: Router
    bottleneck: Link


def join_topology(
    rate_bps: float = 1e9,
    rtt_a: float = 0.100,
    rtt_b: float = 0.001,
    queue_pkts: Optional[int] = None,
    seed: int = 0,
    fidelity: Optional[str] = None,
    tie_break: str = "fifo",
) -> JoinTopology:
    net = Network(seed=seed, fidelity=fidelity, tie_break=tie_break)
    a = net.add_host("A")
    b = net.add_host("B")
    c = net.add_host("C")
    gw = net.add_router("GW")
    qsize = (
        queue_pkts
        if queue_pkts is not None
        else paper_queue_size(rate_bps, max(rtt_a, rtt_b))
    )
    # Long and short access paths converge on the shared gateway->C link.
    net.add_link(a, gw, rate_bps, rtt_a / 2.0, queue_pkts=qsize)
    net.add_link(b, gw, rate_bps, rtt_b / 2.0, queue_pkts=qsize)
    bneck, _ = net.add_link(gw, c, rate_bps, 1e-6, queue_pkts=qsize)
    net.finalize()
    return JoinTopology(net, a, b, c, gw, bneck)


@dataclass
class PathTopology:
    net: Network
    src: Host
    dst: Host
    bottleneck: Link


def path_topology(
    rate_bps: float,
    rtt: float,
    queue_pkts: Optional[int] = None,
    mtu: Optional[int] = None,
    loss_rate: float = 0.0,
    seed: int = 0,
    cross_sources: int = 0,
    fidelity: Optional[str] = None,
    tie_break: str = "fifo",
) -> PathTopology:
    """Single path src -> r1 -> r2 -> dst; bottleneck is r1->r2.

    ``cross_sources`` extra hosts are attached to r1 so experiments can
    inject cross traffic (Figure 8's bursting UDP flow).
    """
    net = Network(seed=seed, fidelity=fidelity, tie_break=tie_break)
    src = net.add_host("src")
    dst = net.add_host("dst")
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    qsize = queue_pkts if queue_pkts is not None else paper_queue_size(rate_bps, rtt)
    net.add_link(src, r1, rate_bps * 10, 1e-6, queue_pkts=max(qsize, 1000))
    bneck, _ = net.add_link(
        r1, r2, rate_bps, max(rtt / 2.0 - 3e-6, 1e-9), queue_pkts=qsize,
        mtu=mtu, loss_rate=loss_rate,
    )
    net.add_link(r2, dst, rate_bps * 10, 1e-6, queue_pkts=max(qsize, 1000))
    for i in range(cross_sources):
        x = net.add_host(f"cross{i}")
        net.add_link(x, r1, rate_bps * 10, 1e-6, queue_pkts=max(qsize, 1000))
    net.finalize()
    return PathTopology(net, src, dst, bneck)


@dataclass
class MultiBottleneck:
    net: Network
    sources: List[Host]
    sinks: List[Host]
    routers: List[Router]
    bottlenecks: List[Link]


def multi_bottleneck(
    n_hops: int,
    rate_bps: float,
    hop_rtt: float,
    queue_pkts: Optional[int] = None,
    seed: int = 0,
    fidelity: Optional[str] = None,
    tie_break: str = "fifo",
) -> MultiBottleneck:
    """Parking-lot: one long flow crosses ``n_hops`` bottlenecks, each also
    carrying a one-hop cross flow (max-min fairness footnote, §3.4)."""
    if n_hops < 2:
        raise ValueError("parking lot needs >= 2 hops")
    net = Network(seed=seed, fidelity=fidelity, tie_break=tie_break)
    routers = [net.add_router(f"r{i}") for i in range(n_hops + 1)]
    qsize = (
        queue_pkts
        if queue_pkts is not None
        else paper_queue_size(rate_bps, hop_rtt * n_hops)
    )
    bnecks = []
    for i in range(n_hops):
        l, _ = net.add_link(
            routers[i], routers[i + 1], rate_bps, hop_rtt / 2.0, queue_pkts=qsize
        )
        bnecks.append(l)
    # Long flow endpoints.
    long_src = net.add_host("long_src")
    long_dst = net.add_host("long_dst")
    net.add_link(long_src, routers[0], rate_bps * 10, 1e-6, queue_pkts=qsize)
    net.add_link(routers[-1], long_dst, rate_bps * 10, 1e-6, queue_pkts=qsize)
    sources, sinks = [long_src], [long_dst]
    # One cross flow per hop.
    for i in range(n_hops):
        s = net.add_host(f"xsrc{i}")
        d = net.add_host(f"xdst{i}")
        net.add_link(s, routers[i], rate_bps * 10, 1e-6, queue_pkts=qsize)
        net.add_link(routers[i + 1], d, rate_bps * 10, 1e-6, queue_pkts=qsize)
        sources.append(s)
        sinks.append(d)
    net.finalize()
    return MultiBottleneck(net, sources, sinks, routers, bnecks)
