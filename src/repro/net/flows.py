"""Max-flow / min-cut on the directed capacitated graph.

APA's notion of a "viable alternate" requires comparing the min-cut of a set
of alternate paths with the bottleneck of the shortest path, and the traffic
matrix scaler needs per-pair s-t capacities.  Edmonds-Karp (BFS augmenting
paths) is ample for backbone-sized graphs.

There is one Edmonds-Karp, :func:`max_flow_ids`, over a
:class:`~repro.net.index.GraphIndex`'s node ids and CSR positions; APA calls
it directly and :func:`max_flow_bps` is its name-keyed wrapper.  The BFS
visits neighbours in ascending id order, which is ascending name order
(ids are assigned to sorted names), so the augmenting paths — and every
float the flow adds and subtracts — are those of a name-keyed BFS in
sorted-name order (``legacy_max_flow_bps`` in ``tests/oracles.py``).

:func:`node_arc_coo` is the node-arc block of the multi-commodity flow
LPs (link-based routing, the max-concurrent-flow scaler), and
:func:`concurrent_flow_bound` checks the scaler's answer from outside
the LP.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.net.graph import Network
from repro.net.index import FloatArray, GraphIndex, IntArray, graph_index

if TYPE_CHECKING:
    from repro.tm.matrix import TrafficMatrix

#: Residual capacity at or below which an arc counts as saturated.
_SATURATED_BPS = 1e-9
_INF = float("inf")


def max_flow_ids(
    index: GraphIndex,
    s: int,
    t: int,
    positions: Iterable[int],
    enough: float = _INF,
) -> float:
    """Maximum flow from node ``s`` to node ``t`` over the links at the
    given CSR positions of ``index`` (repeats are ignored).

    Only those links are visited, so the cost is the subset's size, not
    the network's.  The flow only grows, so once it reaches ``enough``
    it is returned as it stands: ``result >= enough`` answers exactly as
    the full max flow would.
    """
    if s == t:
        raise ValueError("source and destination must differ")
    csr = index.csr()
    tails, heads, capacities = csr.tails, csr.heads, csr.capacities
    n = index.num_nodes
    # Residual capacities keyed by arc u * n + v; each link's reverse arc
    # starts at zero unless the reverse link is in the subset too.
    residual: Dict[int, float] = {}
    for pos in dict.fromkeys(positions):
        u = tails[pos]
        v = heads[pos]
        residual[u * n + v] = capacities[pos]
        residual.setdefault(v * n + u, 0.0)
    # Every arc's neighbours in ascending id order (sorting the arc keys),
    # so the BFS order does not depend on insertion order.
    adjacency: Dict[int, List[int]] = {}
    for arc in sorted(residual):
        u, v = divmod(arc, n)
        row = adjacency.get(u)
        if row is None:
            adjacency[u] = [v]
        else:
            row.append(v)

    total = 0.0
    while total < enough:
        parent = _bfs_augmenting(adjacency, residual, n, s, t)
        if parent is None:
            break
        # Find the bottleneck along the augmenting path, then push it.
        bottleneck = _INF
        node = t
        while node != s:
            prev = parent[node]
            bottleneck = min(bottleneck, residual[prev * n + node])
            node = prev
        node = t
        while node != s:
            prev = parent[node]
            residual[prev * n + node] -= bottleneck
            residual[node * n + prev] += bottleneck
            node = prev
        total += bottleneck
    return total


def _bfs_augmenting(
    adjacency: Dict[int, List[int]],
    residual: Dict[int, float],
    n: int,
    s: int,
    t: int,
) -> Optional[Dict[int, int]]:
    parent: Dict[int, int] = {s: s}
    queue = deque([s])
    while queue:
        node = queue.popleft()
        row = node * n
        for nbr in adjacency.get(node, ()):
            if nbr in parent or residual[row + nbr] <= _SATURATED_BPS:
                continue
            parent[nbr] = node
            if nbr == t:
                return parent
            queue.append(nbr)
    return None


def max_flow_bps(  # analysis: allow[R401] tests check max_flow_ids through it
    network: Network,
    src: str,
    dst: str,
    restrict_links: Optional[Iterable[Tuple[str, str]]] = None,  # analysis: allow[R402] tests check max_flow_ids' restriction
) -> float:
    """Maximum flow from ``src`` to ``dst`` in bits per second.

    ``restrict_links`` limits the flow to a subset of directed links — the
    capacity a *specific set of alternate paths* can jointly carry.  Keys
    absent from the network are ignored.
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    index = graph_index(network)
    s = index.node_id(src)
    if dst not in network:
        return 0.0
    if restrict_links is None:
        positions: Iterable[int] = range(index.num_edges)
    else:
        positions = index.edge_positions(restrict_links)
    return max_flow_ids(index, s, index.node_id(dst), positions)


def node_arc_coo(
    network: Network,
    n_commodities: int,
    first_col: int,
    capacity_rows: IntArray,
) -> Tuple[FloatArray, IntArray, IntArray]:
    """COO ``(data, rows, cols)`` of ``n_commodities`` flows on every link:
    commodity ``k`` on link ``l`` (``network.links()`` order) is column
    ``first_col + k * L + l``, with +1 in row ``k * N + u`` and -1 in row
    ``k * N + v`` for link ``u -> v`` (``network.node_names`` order), and
    +1 in the link's ``capacity_rows[l]``."""
    node_pos = {name: ni for ni, name in enumerate(network.node_names)}
    ends = np.array(
        [(node_pos[link.src], node_pos[link.dst]) for link in network.links()],
        dtype=np.int64,
    ).reshape(-1, 2)
    base = network.num_nodes * np.arange(n_commodities, dtype=np.int64)
    cols = first_col + np.arange(n_commodities * len(ends), dtype=np.int64)
    rows = np.concatenate([
        (base[:, None] + ends[:, 0]).ravel(),
        (base[:, None] + ends[:, 1]).ravel(),
        np.tile(capacity_rows, n_commodities),
    ])
    ones = np.ones(len(cols))
    return np.concatenate([ones, -ones, ones]), rows, np.tile(cols, 3)


def concurrent_flow_bound(  # analysis: allow[R401] tier-1 certifies max_scale_flows' λ with it
    network: Network, tm: "TrafficMatrix", lengths: Sequence[float]
) -> float:
    """Upper bound on the max concurrent flow λ of ``tm`` from link lengths
    ``lengths >= 0`` (one per link, ``network.links()`` order), in the
    network's and matrix's own bits/s:
    ``λ <= sum_l C_l ℓ_l / sum_a b_a dist_ℓ(s_a, t_a)``.

    Weak duality (the length-function dual of Garg and Könemann, FOCS
    1998): λ·TM within capacity puts ``λ b_a dist_ℓ(a)`` or more of
    length-weighted flow on the links for each aggregate, and at most
    ``C_l ℓ_l`` on link ``l``.  Tight on the capacity rows' duals of the
    max-concurrent-flow LP.  One Dijkstra per demand source.
    """
    index = graph_index(network)
    links = list(network.links())
    weights = np.zeros(index.num_edges)
    weights[index.edge_positions(link.key for link in links)] = lengths
    weight_list = weights.tolist()
    capacity = float(np.dot([link.capacity_bps for link in links], lengths))
    routed = 0.0
    src: Optional[str] = None
    for agg in sorted(tm.aggregates(), key=lambda agg: agg.src):
        if agg.src != src:
            src = agg.src
            dist = index.dijkstra_ids(index.node_id(src), weights=weight_list)[0]
        routed += agg.demand_bps * dist[index.node_id(agg.dst)]
    return capacity / routed if routed > 0 else _INF
