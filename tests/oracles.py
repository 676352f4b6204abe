"""Legacy string-keyed path algorithms: the parity oracles for the indexed core.

These are the original dict-based Dijkstra and Yen implementations that
:mod:`repro.net.index` replaced.  Nothing in ``repro`` calls them; the
tests do, asserting that the indexed core returns the same paths,
tie-breaks, float sums and dict insertion order (``test_net_index.py``).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.net.graph import Network
from repro.net.paths import NoPathError, Path, path_delay_s


# ----------------------------------------------------------------------
# Legacy string-keyed implementations — parity oracles
# ----------------------------------------------------------------------
def legacy_shortest_path(
    network: Network,
    src: str,
    dst: str,
    excluded_links: Optional[Set[Tuple[str, str]]] = None,
    excluded_nodes: Optional[Set[str]] = None,
) -> Path:
    """Original dict-based Dijkstra; kept as the parity oracle for tests."""
    if src == dst:
        raise ValueError("source and destination must differ")
    dist, parent = _dijkstra(network, src, dst, excluded_links, excluded_nodes)
    if dst not in dist:
        raise NoPathError(f"no path {src} -> {dst}")
    return _extract(parent, src, dst)


def legacy_shortest_path_delays(network: Network, src: str) -> Dict[str, float]:
    """Original single-source delay sweep; parity oracle for tests."""
    dist, _ = _dijkstra(network, src, None, None, None)
    dist.pop(src, None)
    return dist


def legacy_all_pairs_shortest_paths(
    network: Network,
) -> Dict[Tuple[str, str], Path]:
    """Original all-pairs materialization; parity oracle for tests."""
    paths: Dict[Tuple[str, str], Path] = {}
    for src in network.node_names:
        _, parent = _dijkstra(network, src, None, None, None)
        for dst in network.node_names:
            if dst != src and dst in parent:
                paths[(src, dst)] = _extract(parent, src, dst)
    return paths


def _dijkstra(
    network: Network,
    src: str,
    dst: Optional[str],
    excluded_links: Optional[Set[Tuple[str, str]]],
    excluded_nodes: Optional[Set[str]],
) -> Tuple[Dict[str, float], Dict[str, str]]:
    if src not in network:
        raise KeyError(f"unknown node {src!r}")
    if excluded_nodes and src in excluded_nodes:
        return {}, {}
    dist: Dict[str, float] = {src: 0.0}
    parent: Dict[str, str] = {}
    done: Set[str] = set()
    heap: List[Tuple[float, str]] = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == dst:
            break
        for link in network.out_links(node):
            nbr = link.dst
            if nbr in done:
                continue
            if excluded_nodes and nbr in excluded_nodes:
                continue
            if excluded_links and (node, nbr) in excluded_links:
                continue
            nd = d + link.delay_s
            if nd < dist.get(nbr, float("inf")):
                dist[nbr] = nd
                parent[nbr] = node
                heapq.heappush(heap, (nd, nbr))
    return dist, parent


def _extract(parent: Dict[str, str], src: str, dst: str) -> Path:
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


# ----------------------------------------------------------------------
# Yen's k shortest loopless paths — legacy parity oracle
# ----------------------------------------------------------------------
def legacy_k_shortest_paths(
    network: Network, src: str, dst: str
) -> Iterator[Path]:
    """Original string-keyed Yen's algorithm; parity oracle for tests.

    The spur-root delay accumulates incrementally per hop (one link delay
    added per spur index) instead of re-summing the whole root prefix —
    the same left-to-right float addition order as the old
    ``path_delay_s(network, root)``, so candidate ordering is unchanged
    while the per-path cost drops from O(L²) to O(L).
    """
    try:
        first = legacy_shortest_path(network, src, dst)
    except NoPathError:
        return
    yield first

    produced: List[Path] = [first]
    # Candidate heap entries: (delay, path).  A set of already-queued paths
    # avoids duplicate candidates, which Yen's algorithm generates freely.
    candidates: List[Tuple[float, Path]] = []
    queued: Set[Path] = {first}

    while True:
        prev = produced[-1]
        root_delay = 0.0
        for i in range(len(prev) - 1):
            spur_node = prev[i]
            root = prev[: i + 1]
            if i > 0:
                root_delay += network.link(prev[i - 1], prev[i]).delay_s

            excluded_links: Set[Tuple[str, str]] = set()
            for existing in produced:
                if len(existing) > i and existing[: i + 1] == root:
                    excluded_links.add((existing[i], existing[i + 1]))
            excluded_nodes = set(root[:-1])

            try:
                spur = legacy_shortest_path(
                    network,
                    spur_node,
                    dst,
                    excluded_links=excluded_links,
                    excluded_nodes=excluded_nodes,
                )
            except NoPathError:
                continue
            candidate = root[:-1] + spur
            if candidate in queued:
                continue
            queued.add(candidate)
            heapq.heappush(
                candidates, (root_delay + path_delay_s(network, spur), candidate)
            )

        if not candidates:
            return
        _, best = heapq.heappop(candidates)
        produced.append(best)
        yield best
