"""Static shortest-path routing.

Routes are computed once over the topology graph (weighted by propagation
delay) and installed as per-node next-hop tables.  The simulator models a
stable provisioned network — the paper's testbeds are static light paths —
so dynamic routing is out of scope.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Tuple

from repro.sim.link import Link
from repro.sim.node import Node


def compute_routes(
    nodes: Dict[int, Node], links: Dict[Tuple[int, int], Link]
) -> None:
    """Install next-hop tables on every node (all-pairs Dijkstra by delay).

    Tie-breaking is part of the simulator's reproducibility contract (an
    equal-cost choice moves packets onto another queue), so the search
    makes the choices ``networkx.all_pairs_dijkstra_path`` made when it
    did this job: a node's out-edges are relaxed in link insertion order,
    only a strictly shorter distance replaces a tentative one, and the
    fringe pops equal distances in push order.
    """
    out_edges: Dict[int, List[Tuple[int, float, Link]]] = {n: [] for n in nodes}
    for (a, b), link in links.items():
        out_edges[a].append((b, link.delay + 1e-12, link))
    for src_id, node in nodes.items():
        routes = node.routes
        routes.clear()
        first_hop: Dict[int, Link] = {}  # tentative, final once settled
        tentative: Dict[int, float] = {src_id: 0}
        settled = set()
        push_order = count()
        fringe = [(0, next(push_order), src_id)]
        while fringe:
            dist_v, _, v = heappop(fringe)
            if v in settled:
                continue
            settled.add(v)
            if v != src_id:
                routes[v] = first_hop[v]
            for u, weight, link in out_edges[v]:
                dist_u = dist_v + weight
                if u not in settled and (u not in tentative or dist_u < tentative[u]):
                    tentative[u] = dist_u
                    first_hop[u] = link if v == src_id else first_hop[v]
                    heappush(fringe, (dist_u, next(push_order), u))
