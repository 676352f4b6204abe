"""Legacy implementations kept as parity oracles.

The original dict-based Dijkstra and Yen implementations that
:mod:`repro.net.index` replaced, the original B4 water-filling loop
that rebuilt its per-link user census every round, the MinMax seed-path
decomposition that copied the network for every strip, the name-keyed max
flow that scanned every link, and APA on a network copy per removed link.
Nothing in ``repro`` calls them; the tests do, asserting that the indexed
core returns the same paths, tie-breaks, float sums and dict insertion
order (``test_net_index.py``), that B4 places every aggregate bit for bit
as before (``test_routing_b4.py``), and that seeds, max flows and APA
values are unchanged (``test_mcf_and_cli.py``, ``test_net_flows.py``,
``test_core_metrics.py``).  :class:`ScalarLP` is the row-at-a-time LP
assembly the vectorized path LP is checked against
(``test_lp_fastpath.py``).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.metrics import ApaParameters
from repro.lp import CompiledLP
from repro.net.graph import Network
from repro.net.mutate import without_failures
from repro.net.paths import (
    KspCache,
    NoPathError,
    Path,
    all_pairs_shortest_paths,
    k_shortest_paths,
    path_bottleneck_bps,
    path_delay_s,
    path_links,
    shortest_path,
)
from repro.routing.b4 import RATE_EPSILON_BPS
from repro.routing.base import PathAllocation, Placement
from repro.tm.matrix import Aggregate, TrafficMatrix


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


# ----------------------------------------------------------------------
# B4 water-filling with a per-round census — legacy parity oracle
# ----------------------------------------------------------------------
@dataclass
class _LegacyB4State:
    aggregate: Aggregate
    remaining_bps: float
    placed: Dict[Path, float] = field(default_factory=dict)
    next_path_rank: int = 0
    current_path: Optional[Path] = None
    exhausted: bool = False


def legacy_b4_place(
    network: Network,
    tm: TrafficMatrix,
    headroom: float = 0.0,
    max_paths: int = 25,
    cache: Optional[KspCache] = None,
) -> Placement:
    """Original ``B4Routing.place``: ``path_links`` rebuilt for every
    active aggregate three times a round, and the ``users`` census
    recounted in full every round.  Parity oracle for tests."""
    if cache is None or cache.network is not network:
        cache = KspCache(network)

    residual = {
        link.key: link.capacity_bps * (1.0 - headroom)
        for link in network.links()
    }
    states = [
        _LegacyB4State(agg, agg.demand_bps) for agg in tm.aggregates()
    ]
    _legacy_waterfill(states, residual, cache, max_paths)

    if headroom > 0:
        leftovers = [s for s in states if s.remaining_bps > RATE_EPSILON_BPS]
        if leftovers:
            full_residual = {
                link.key: link.capacity_bps for link in network.links()
            }
            for key, value in residual.items():
                used = (
                    network.link(*key).capacity_bps * (1.0 - headroom)
                    - value
                )
                full_residual[key] -= used
            for state in leftovers:
                state.exhausted = False
                state.next_path_rank = 0
                state.current_path = None
            _legacy_waterfill(leftovers, full_residual, cache, max_paths)

    allocations: Dict[Aggregate, List[PathAllocation]] = {}
    for state in states:
        agg = state.aggregate
        placed = dict(state.placed)
        if state.remaining_bps > RATE_EPSILON_BPS:
            shortest = cache.shortest(agg.src, agg.dst)
            placed[shortest] = placed.get(shortest, 0.0) + state.remaining_bps
        total = sum(placed.values())
        if total <= 0:
            shortest = cache.shortest(agg.src, agg.dst)
            placed = {shortest: agg.demand_bps}
            total = agg.demand_bps
        allocations[agg] = [
            PathAllocation(path, rate / total)
            for path, rate in placed.items()
            if rate > 0.0
        ]
    return Placement(network, allocations)


def _legacy_waterfill(
    states: List[_LegacyB4State],
    residual: Dict[Tuple[str, str], float],
    cache: KspCache,
    max_paths: int,
) -> None:
    for state in states:
        _legacy_advance(state, residual, cache, max_paths)

    while True:
        active = [
            s
            for s in states
            if not s.exhausted and s.remaining_bps > RATE_EPSILON_BPS
        ]
        if not active:
            return

        users: Dict[Tuple[str, str], int] = {}
        for state in active:
            assert state.current_path is not None
            for key in path_links(state.current_path):
                users[key] = users.get(key, 0) + 1

        step = min(s.remaining_bps for s in active)
        for key, count in users.items():
            step = min(step, residual[key] / count)

        if step > RATE_EPSILON_BPS:
            for state in active:
                path = state.current_path
                assert path is not None
                state.placed[path] = state.placed.get(path, 0.0) + step
                state.remaining_bps -= step
                for key in path_links(path):
                    residual[key] -= step

        advanced_any = False
        for state in active:
            if state.remaining_bps <= RATE_EPSILON_BPS:
                continue
            path = state.current_path
            assert path is not None
            if any(residual[key] <= RATE_EPSILON_BPS for key in path_links(path)):
                _legacy_advance(state, residual, cache, max_paths)
                advanced_any = True

        if step <= RATE_EPSILON_BPS and not advanced_any:
            tightest = min(users, key=lambda key: residual[key] / users[key])
            for state in active:
                if state.remaining_bps <= RATE_EPSILON_BPS:
                    continue
                path = state.current_path
                if path is not None and tightest in path_links(path):
                    _legacy_advance(state, residual, cache, max_paths)


def _legacy_advance(
    state: _LegacyB4State,
    residual: Dict[Tuple[str, str], float],
    cache: KspCache,
    max_paths: int,
) -> None:
    agg = state.aggregate
    while state.next_path_rank < max_paths:
        rank = state.next_path_rank
        paths = cache.get(agg.src, agg.dst, rank + 1)
        if len(paths) <= rank:
            break
        state.next_path_rank += 1
        candidate = paths[rank]
        if all(
            residual[key] > RATE_EPSILON_BPS for key in path_links(candidate)
        ):
            state.current_path = candidate
            return
    state.current_path = None
    state.exhausted = True


# ----------------------------------------------------------------------
# Subgraph-per-strip MinMax seeds and full-scan max flow — parity oracles
# ----------------------------------------------------------------------
def _legacy_subgraph_with_links(
    network: Network, links: Iterable[Tuple[str, str]]
) -> Network:
    """A copy containing all nodes but only the given directed links."""
    clone = Network(network.name)
    for name in network.node_names:
        clone.add_node(network.node(name))
    for key in links:
        clone.add_link(network.link(*key))
    return clone


def legacy_mcf_seed_paths(
    network: Network, tm: TrafficMatrix
) -> Tuple[float, Dict[Tuple[str, str], List[Path]]]:
    """Original ``mcf_seed_paths``: a fresh subgraph (and graph index) of
    the flow-carrying links for every strip.  Parity oracle for tests."""
    from repro.tm.scale import max_scale_flows

    lam, flows, _ = max_scale_flows(network, tm)
    demands_from: Dict[str, Dict[str, float]] = {}
    for agg in tm.aggregates():
        demands_from.setdefault(agg.src, {})[agg.dst] = agg.demand_bps

    seeds: Dict[Tuple[str, str], List[Path]] = {}
    for src, per_link in flows.items():
        remaining_flow = dict(per_link)
        remaining_demand = dict(demands_from.get(src, {}))
        for _ in range(len(per_link) + len(remaining_demand) + 1):
            pending = [
                (dst, demand)
                for dst, demand in remaining_demand.items()
                if demand > 1e-6
            ]
            if not pending:
                break
            dst = max(pending, key=lambda item: item[1])[0]
            subgraph = _legacy_subgraph_with_links(network, remaining_flow)
            try:
                path = shortest_path(subgraph, src, dst)
            except NoPathError:
                del remaining_demand[dst]
                continue
            strip = min(
                remaining_demand[dst],
                min(remaining_flow[key] for key in path_links(path)),
            )
            for key in path_links(path):
                remaining_flow[key] -= strip
                if remaining_flow[key] <= 1e-9:
                    del remaining_flow[key]
            remaining_demand[dst] -= strip
            if remaining_demand[dst] <= 1e-6:
                del remaining_demand[dst]
            seeds.setdefault((src, dst), [])
            if path not in seeds[(src, dst)]:
                seeds[(src, dst)].append(path)
    return 1.0 / lam, seeds


def legacy_max_flow_bps(
    network: Network,
    src: str,
    dst: str,
    restrict_links: Optional[Iterable[Tuple[str, str]]] = None,
) -> float:
    """Original ``max_flow_bps``: the residual graph is built by scanning
    every network link, restricted or not, and keyed by node name.  Parity
    oracle for tests."""
    allowed = set(restrict_links) if restrict_links is not None else None
    residual: Dict[Tuple[str, str], float] = {}
    adjacency: Dict[str, Set[str]] = {name: set() for name in network.node_names}
    for link in network.links():
        if allowed is not None and link.key not in allowed:
            continue
        residual[link.key] = residual.get(link.key, 0.0) + link.capacity_bps
        residual.setdefault((link.dst, link.src), residual.get((link.dst, link.src), 0.0))
        adjacency[link.src].add(link.dst)
        adjacency[link.dst].add(link.src)
    total = 0.0
    while True:
        parent = _bfs_augmenting(adjacency, residual, src, dst)
        if parent is None:
            return total
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


# ----------------------------------------------------------------------
# APA on a network copy per removed link — parity oracle
# ----------------------------------------------------------------------
class _ReducedNetworkCache:
    """Per-physical-link copies of the network with that link removed.

    Every pair whose shortest path crosses a given physical link shares the
    same reduced network, so building it once per link (not once per
    pair-link combination) is the main APA speedup.
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self._cache: Dict[Tuple[str, str], Network] = {}

    def without(self, u: str, v: str) -> Network:
        key = (min(u, v), max(u, v))
        if key not in self._cache:
            self._cache[key] = without_failures(self._network, [(u, v)])
        return self._cache[key]


def _link_routable_around(
    network: Network,
    reduced: Network,
    src: str,
    dst: str,
    shortest_delay_s: float,
    required_bps: float,
    params: ApaParameters,
) -> bool:
    """Can (src, dst) traffic avoid the removed link within the stretch limit?"""
    delay_budget = shortest_delay_s * params.stretch_limit
    alternates: List[Tuple[str, ...]] = []
    union_links: set = set()
    for path in k_shortest_paths(reduced, src, dst):
        delay = path_delay_s(reduced, path)
        if delay > delay_budget + 1e-12:
            # Paths arrive in non-decreasing delay order: nothing after
            # this one can be within budget either.
            return False
        alternates.append(path)
        union_links.update(path_links(path))
        if len(alternates) == 1:
            # Single-alternate fast path: its own bottleneck may suffice.
            if path_bottleneck_bps(reduced, path) >= required_bps:
                return True
        else:
            joint = legacy_max_flow_bps(
                reduced, src, dst, restrict_links=union_links
            )
            if joint >= required_bps:
                return True
        if len(alternates) >= params.max_alternates:
            return False
    return False


def _legacy_pair_apa(
    network: Network,
    src: str,
    dst: str,
    params: ApaParameters,
    shortest: Tuple[str, ...],
    reduced_cache: _ReducedNetworkCache,
) -> float:
    shortest_delay = path_delay_s(network, shortest)
    required = path_bottleneck_bps(network, shortest)
    links = path_links(shortest)
    routable = 0
    for u, v in links:
        reduced = reduced_cache.without(u, v)
        if _link_routable_around(
            network, reduced, src, dst, shortest_delay, required, params
        ):
            routable += 1
    return routable / len(links)


def legacy_apa_all_pairs(
    network: Network, params: ApaParameters = ApaParameters()
) -> Dict[Tuple[str, str], float]:
    """Original ``apa_all_pairs``: a network copy (hashed and indexed
    afresh) per removed physical link, Yen from scratch on it for every
    check, and a name-keyed max flow per added alternate.  Parity oracle
    for tests."""
    shortest_paths = all_pairs_shortest_paths(network)
    cache = _ReducedNetworkCache(network)
    return {
        (src, dst): _legacy_pair_apa(network, src, dst, params, path, cache)
        for (src, dst), path in shortest_paths.items()
    }


# ----------------------------------------------------------------------
# Row-at-a-time LP assembly
# ----------------------------------------------------------------------
def add_term(row: Dict[int, float], col: int, v: float) -> Dict[int, float]:
    """Accumulate ``v`` onto column ``col`` of ``row`` (in place)."""
    row[col] = row.get(col, 0.0) + float(v)
    return row


class ScalarLP:
    """An LP built one column and one ``{column: coefficient}`` row at a
    time; :meth:`compile` emits one COO entry per term, rows in insertion
    order, exactly as the scalar builder the vectorized assembly replaced."""

    def __init__(self) -> None:
        self.lower: List[float] = []
        self.upper: List[float] = []
        self.rows: List[Tuple[Dict[int, float], int, float]] = []

    def variable(self, lower: float = 0.0, upper: float = np.inf) -> int:
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.lower) - 1

    def add_row(self, terms: Dict[int, float], sense: int, rhs: float) -> None:
        self.rows.append((terms, sense, float(rhs)))

    def compile(self, objective: Dict[int, float]) -> CompiledLP:
        c = np.zeros(len(self.lower))
        for column, coefficient in objective.items():
            c[column] += coefficient
        terms = [(i, col, v) for i, (row, _, _) in enumerate(self.rows)
                 for col, v in row.items()]
        return CompiledLP.from_coo(
            len(self.lower),
            np.array([v for _, _, v in terms], dtype=np.float64),
            np.array([i for i, _, _ in terms], dtype=np.int64),
            np.array([col for _, col, _ in terms], dtype=np.int64),
            np.array([sense for _, sense, _ in self.rows], dtype=np.int8),
            np.array([rhs for _, _, rhs in self.rows], dtype=np.float64),
            c, np.array(self.lower), np.array(self.upper),
        )
