"""Static routing: pinned next-hop tables and equivalence with networkx.

``compute_routes`` used to call ``networkx.all_pairs_dijkstra_path``; the
tables below were generated with that implementation (commit 32d560a) and
the in-repo Dijkstra must reproduce them entry for entry, *in insertion
order* — an equal-cost choice that flips moves packets onto another
queue and silently changes every result that crosses it.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.link import Link
from repro.sim.routing import compute_routes
from repro.sim.topology import (
    Network,
    dumbbell,
    join_topology,
    multi_bottleneck,
    path_topology,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def next_hops(net: Network):
    """{node id: [(destination id, next-hop node id), ...]} in table order."""
    return {
        n.id: [(dst, link.dst.id) for dst, link in n.routes.items()]
        for n in net.nodes.values()
    }


def diamond() -> Network:
    """Equal-cost choices everywhere a packet from ``a`` can turn.

    a->c->d and a->b->d tie (c's link was added first); a->c->e->d ties
    with a->c->d in exact arithmetic; the direct a->d link, added before
    all of them, is slower and must lose; b->e is one-way and slower than
    b->d->e.
    """
    net = Network(seed=0)
    a, b, c, d, e = (
        net.add_host(x) if x in "ad" else net.add_router(x) for x in "abcde"
    )
    net.add_link(a, d, 1e9, 0.004)
    net.add_link(a, c, 1e9, 0.001)
    net.add_link(a, b, 1e9, 0.001)
    net.add_link(b, d, 1e9, 0.001)
    net.add_link(c, d, 1e9, 0.001)
    net.add_link(c, e, 1e9, 0.0005)
    net.add_link(e, d, 1e9, 0.0005)
    net.add_link(b, e, 1e9, 0.002, duplex=False)
    return net.finalize()


BUILDERS = {
    "dumbbell": lambda: dumbbell(2, 1e9, 0.1).net,
    "join": lambda: join_topology().net,
    "path": lambda: path_topology(1e9, 0.1, cross_sources=2).net,
    "multi_bottleneck": lambda: multi_bottleneck(2, 1e9, 0.02).net,
    "diamond": diamond,
}

# Generated on the parent commit (networkx 3.6.1) by printing next_hops().
PINNED = {
    "dumbbell": {
        0: [(2, 2), (4, 4), (1, 1), (3, 1), (5, 1)],
        1: [(3, 3), (5, 5), (0, 0), (2, 0), (4, 0)],
        2: [(0, 0), (4, 0), (1, 0), (3, 0), (5, 0)],
        3: [(1, 1), (5, 1), (0, 1), (2, 1), (4, 1)],
        4: [(0, 0), (2, 0), (1, 0), (3, 0), (5, 0)],
        5: [(1, 1), (3, 1), (0, 1), (2, 1), (4, 1)],
    },
    "join": {
        0: [(3, 3), (2, 3), (1, 3)],
        1: [(3, 3), (2, 3), (0, 3)],
        2: [(3, 3), (1, 3), (0, 3)],
        3: [(2, 2), (1, 1), (0, 0)],
    },
    "path": {
        0: [(2, 2), (4, 2), (5, 2), (3, 2), (1, 2)],
        1: [(3, 3), (2, 3), (0, 3), (4, 3), (5, 3)],
        2: [(0, 0), (4, 4), (5, 5), (3, 3), (1, 3)],
        3: [(1, 1), (2, 2), (0, 2), (4, 2), (5, 2)],
        4: [(2, 2), (0, 2), (5, 2), (3, 2), (1, 2)],
        5: [(2, 2), (0, 2), (4, 2), (3, 2), (1, 2)],
    },
    "multi_bottleneck": {
        0: [(3, 3), (5, 5), (1, 1), (6, 1), (7, 1), (2, 1), (4, 1), (8, 1)],
        1: [(6, 6), (7, 7), (0, 0), (2, 2), (3, 0), (5, 0), (4, 2), (8, 2)],
        2: [(4, 4), (8, 8), (1, 1), (6, 1), (7, 1), (0, 1), (3, 1), (5, 1)],
        3: [(0, 0), (5, 0), (1, 0), (6, 0), (7, 0), (2, 0), (4, 0), (8, 0)],
        4: [(2, 2), (8, 2), (1, 2), (6, 2), (7, 2), (0, 2), (3, 2), (5, 2)],
        5: [(0, 0), (3, 0), (1, 0), (6, 0), (7, 0), (2, 0), (4, 0), (8, 0)],
        6: [(1, 1), (7, 1), (0, 1), (2, 1), (3, 1), (5, 1), (4, 1), (8, 1)],
        7: [(1, 1), (6, 1), (0, 1), (2, 1), (3, 1), (5, 1), (4, 1), (8, 1)],
        8: [(2, 2), (4, 2), (1, 2), (6, 2), (7, 2), (0, 2), (3, 2), (5, 2)],
    },
    "diamond": {
        0: [(2, 2), (1, 1), (4, 2), (3, 2)],
        1: [(0, 0), (3, 3), (4, 3), (2, 0)],
        2: [(4, 4), (0, 0), (3, 3), (1, 0)],
        3: [(4, 4), (1, 1), (2, 2), (0, 1)],
        4: [(2, 2), (3, 3), (0, 2), (1, 3)],
    },
}


@pytest.mark.parametrize("name", BUILDERS)
def test_next_hop_tables_are_the_pinned_ones(name):
    assert next_hops(BUILDERS[name]()) == PINNED[name]


def test_recomputing_replaces_stale_routes_and_skips_unreachable_nodes():
    net = Network(seed=0)
    a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
    net.add_link(a, b, 1e9, 0.001, duplex=False)
    a.routes[c.id] = object()  # stale entry from an earlier topology
    net.finalize()
    assert next_hops(net) == {a.id: [(b.id, b.id)], b.id: [], c.id: []}


def _random_digraph(rng: random.Random):
    """A Network-shaped (nodes, links) pair with many equal-cost paths."""
    net = Network(seed=0)
    nodes = [net.add_router(f"n{i}") for i in range(rng.randint(2, 14))]
    pairs = [(a, b) for a in nodes for b in nodes if a is not b]
    rng.shuffle(pairs)
    for a, b in pairs[: rng.randint(1, len(pairs))]:
        # Delays from a three-value set: ties are the common case.
        delay = rng.choice((0.0, 0.001, 0.002))
        net.links[(a.id, b.id)] = Link(net.sim, a, b, 1e9, delay)
    return net


def test_matches_networkx_on_random_digraphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20040611)
    for _ in range(200):
        net = _random_digraph(rng)
        compute_routes(net.nodes, net.links)
        g = nx.DiGraph()
        g.add_nodes_from(net.nodes)
        for (a, b), link in net.links.items():
            g.add_edge(a, b, weight=link.delay + 1e-12)
        want = {
            src: [(dst, path[1]) for dst, path in paths.items() if dst != src]
            for src, paths in nx.all_pairs_dijkstra_path(g, weight="weight")
        }
        assert next_hops(net) == want


def test_importing_the_package_loads_no_numeric_or_graph_library():
    code = (
        "import sys, repro, repro.cli, repro.experiments.registry, repro.live, "
        "repro.runner\n"
        "print([m for m in ('networkx', 'numpy', 'scipy') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
