"""Max-flow / min-cut on the directed capacitated graph.

APA's notion of a "viable alternate" requires comparing the min-cut of a set
of alternate paths with the bottleneck of the shortest path, and the traffic
matrix scaler needs per-pair s-t capacities.  Edmonds-Karp (BFS augmenting
paths) is ample for backbone-sized graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.net.graph import Link, Network


def max_flow_bps(
    network: Network,
    src: str,
    dst: str,
    restrict_links: Optional[Iterable[Tuple[str, str]]] = None,
) -> float:
    """Maximum flow from ``src`` to ``dst`` in bits per second.

    ``restrict_links`` limits the flow to a subset of directed links — used
    by APA, which asks how much capacity a *specific set of alternate paths*
    can jointly carry.  Only those links are visited (keys absent from the
    network are ignored), so a restricted call costs the subset's size,
    not the network's.
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    links: Iterable[Link] = network.links()
    if restrict_links is not None:
        links = [
            network.link(*key)
            for key in dict.fromkeys(restrict_links)
            if network.has_link(*key)
        ]
    # Residual capacities keyed by directed (u, v).  Reverse residual arcs
    # are created on demand with zero initial capacity.
    residual: Dict[Tuple[str, str], float] = {}
    adjacency: Dict[str, Set[str]] = {name: set() for name in network.node_names}
    for link in links:
        residual[link.key] = residual.get(link.key, 0.0) + link.capacity_bps
        residual.setdefault((link.dst, link.src), residual.get((link.dst, link.src), 0.0))
        adjacency[link.src].add(link.dst)
        adjacency[link.dst].add(link.src)

    total = 0.0
    while True:
        parent = _bfs_augmenting(adjacency, residual, src, dst)
        if parent is None:
            return total
        # Find the bottleneck along the augmenting path, then push it.
        bottleneck = float("inf")
        node = dst
        while node != src:
            prev = parent[node]
            bottleneck = min(bottleneck, residual[(prev, node)])
            node = prev
        node = dst
        while node != src:
            prev = parent[node]
            residual[(prev, node)] -= bottleneck
            residual[(node, prev)] = residual.get((node, prev), 0.0) + bottleneck
            node = prev
        total += bottleneck


def _bfs_augmenting(
    adjacency: Dict[str, Set[str]],
    residual: Dict[Tuple[str, str], float],
    src: str,
    dst: str,
) -> Optional[Dict[str, str]]:
    parent: Dict[str, str] = {}
    visited = {src}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        # Sorted traversal: the BFS parent (and hence the augmenting path)
        # must not depend on set hash order, or max-flow decompositions
        # differ across PYTHONHASHSEED values.
        for nbr in sorted(adjacency[node]):
            if nbr in visited:
                continue
            if residual.get((node, nbr), 0.0) <= 1e-9:
                continue
            parent[nbr] = node
            if nbr == dst:
                return parent
            visited.add(nbr)
            queue.append(nbr)
    return None


def min_cut_bps(network: Network, src: str, dst: str) -> float:
    """Capacity of the minimum s-t cut (equals the max flow)."""
    return max_flow_bps(network, src, dst)
