"""Integer-indexed sparse graph core.

The legacy path algorithms in :mod:`repro.net.paths` key everything by node
name: string dicts, string heaps, string exclusion sets.  That is perfectly
fast at zoo scale (hundreds of nodes) and hopeless at ingest scale (10k+
nodes, the CAIDA-style graphs of :mod:`repro.net.ingest`).  This module
compiles a :class:`~repro.net.graph.Network` into a :class:`GraphIndex` —
contiguous integer node ids, CSR adjacency, flat delay/capacity arrays —
and rebuilds Dijkstra, single-source delay sweeps and Yen's k-shortest
paths on top of array heaps and bytearray exclusion masks.

**Bit-identity contract.**  The indexed algorithms return *exactly* the
paths the legacy ones do, byte for byte:

* node ids are assigned in **sorted-name order**, so the integer heap
  entries ``(dist, id)`` tie-break exactly like the legacy ``(dist, name)``
  entries;
* CSR neighbor runs preserve each node's adjacency **insertion order**, so
  relaxation visits links in the legacy sequence;
* distances accumulate in the same left-to-right float addition order, so
  every comparison sees the same ulps.

**Goal-directed search, same paths.**  :meth:`GraphIndex.k_shortest_paths`
bounds its first-path search and every Yen spur search with
:meth:`GraphIndex.delays_to`: ``h[v]``, the minimum delay ``v -> t`` in the
*unrestricted* graph, from one reverse sweep memoized per target.  A
relaxation that would label ``v`` with ``g`` is skipped when
``g + h[v] > limit``, and the limit is always the length of a **real path
in the restricted graph** (for a spur search: a first hop that is not
excluded, then ``next_hop`` pointers to ``t`` that touch neither the spur
node nor an excluded root node) times ``1 + 1e-9``.  The contract holds
because:

* the limit is the length of a real restricted path, so every node on *any*
  shortest restricted path has ``g + h <= limit`` and is never skipped;
* every minimum-achieving predecessor of such a node is itself on a
  shortest path, so it keeps its exact distance and pops in the same
  ``(dist, id)`` order — ``parent[]`` along the returned path, ties
  included, and ``dist[t]`` are what the unbounded search computes;
* ``h`` is only ever a bound (summed backward, where the search sums
  forward), so it carries no tie-break contract; the 1e-9 relative slack
  absorbs that float-summation difference and nothing else.  A limit that
  is *guessed* rather than realised by a path can land within rounding of
  the true distance and drop one of two equal-length paths — never do that;
* Lawler's rule (spur only from the deviation index of the previous path
  onward) skips searches whose candidate the legacy algorithm regenerated
  and discarded as a duplicate, and heap pops of distinct ``(delay, path)``
  tuples do not depend on push order.

**Masked views, same paths.**  :meth:`GraphIndex.without_edges` is the
index of a copy of the network with some links removed, without copying:
the view shares the CSR lists, never relaxes the removed positions and
keeps its own ``delays_to`` memo (a masked reverse sweep).  The copy would
keep every node (so the same ids) and each node's adjacency order minus
the removed links, so the view relaxes links in exactly the copy's order
and returns the same paths, ties and float sums included — the argument
:class:`~repro.routing.decompose.ResidualFlow` rests on.

**Budget-capped Yen, same in-budget prefix.**  ``k_shortest_ids(s, t,
max_delay)`` caps every spur search at ``max_delay - root_delay``; APA
passes its acceptance limit (``budget + 1e-12``) times ``1 + 1e-6``.  A
spur path no longer than the cap is found exactly as before (the cap is
just a tighter ``limit``, and every node on it has ``g + h`` within
rounding of its length); a longer one is dropped.  A dropped candidate's
delay exceeds the acceptance limit by about ``1e-6`` of it, far beyond the
few ulps by which a sum's order can move it, so it sorts after every
candidate APA accepts, and a candidate within rounding of the limit is
never dropped.  Produced paths, their deviation indices and so every
later search are those of the uncapped run until the first path APA
rejects; from there the capped run yields a rejected path or stops, and
APA's answer is the same.

Memory: the memo holds one ``double`` and one ``int`` per node per distinct
target (12 bytes x n x targets — 0.5 MB for the 13 gateway targets of a
3 300-node graph, 120 KB x targets at 10k nodes) for the life of the index.
A suspended :meth:`GraphIndex.k_shortest_ids` generator keeps only its
produced paths, its candidate heap and their deviation indices, besides
references to the index's CSR lists and that memo: every search runs in
a helper, so its ``dist``/``parent`` lists and edge/node masks (O(n + m)
each) are freed before the generator yields.  On the 3 300-node
``ingest_scale`` graph a pair's suspended generator, four paths in,
holds 2.9 KB (108 KB when it kept its last searches' arrays), so a KSP
cache grows with the paths it has produced and queued, not with n + m.

The legacy implementations survive as ``legacy_*`` parity oracles in
``tests/oracles.py``, and ``tests/test_net_index.py`` asserts equality
across the whole zoo, seeded synthetic graphs and tie-heavy random directed
graphs.

Indexes are memoized on the network via the existing ``_signature_memo``
invalidation hook: every :class:`Network` mutation resets the memo to
``None``, and recomputation creates a *new* string object, so an identity
check on the memoized token detects any mutation — including a
mutate-and-undo cycle that restores the same signature value.
"""

from __future__ import annotations

import copy
import heapq
import sys
from array import array
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np
import numpy.typing as npt

from repro.net.graph import Network
from repro.telemetry import recorder

Path = Tuple[str, ...]
IdPath = Tuple[int, ...]
FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

_INF = float("inf")
# As a search limit the largest finite float prunes exactly the nodes that
# cannot reach the target (``g + inf > limit``) and nothing else.
_REACHABLE_ONLY = sys.float_info.max
# Relative slack on every limit: absorbs forward-vs-backward float summation.
_SLACK = 1.0 + 1e-9


class NoPathError(Exception):
    """Raised when no path exists between the requested endpoints.

    Defined here (the lowest layer that raises it) and re-exported by
    :mod:`repro.net.paths`, which is where most callers import it from.
    """


class Csr(NamedTuple):
    """The index's per-link lists, indexed by CSR position (read-only)."""

    indptr: List[int]
    tails: List[int]
    heads: List[int]
    delays: List[float]
    capacities: List[float]


class GraphIndex:
    """A compiled, immutable sparse view of one :class:`Network`.

    Holds the name⇄id maps, CSR adjacency (``indptr``/``neighbors``) with
    parallel per-edge delay and capacity arrays, and the integer-indexed
    path algorithms.  Build cost is O(n + m log m); obtain instances via
    :func:`graph_index`, which memoizes per network.
    """

    def __init__(self, network: Network) -> None:
        names = sorted(network.node_names)
        ids: Dict[str, int] = {name: i for i, name in enumerate(names)}
        n = len(names)
        indptr: List[int] = [0] * (n + 1)
        tails: List[int] = []
        neighbors: List[int] = []
        delays: List[float] = []
        capacities: List[float] = []
        edge_pos: Dict[Tuple[int, int], int] = {}
        for u, name in enumerate(names):
            # Per-node adjacency insertion order is preserved so the
            # indexed relaxation sequence matches the legacy one.
            for link in network.out_links(name):
                v = ids[link.dst]
                edge_pos[(u, v)] = len(neighbors)
                tails.append(u)
                neighbors.append(v)
                delays.append(link.delay_s)
                capacities.append(link.capacity_bps)
            indptr[u + 1] = len(neighbors)
        self._names: List[str] = names
        self._ids = ids
        self._indptr = indptr
        self._tails = tails
        self._neighbors = neighbors
        self._delays = delays
        self._capacities = capacities
        self._edge_pos = edge_pos
        # A view (without_edges) shares all of the above with its base and
        # masks its removed positions.
        self._base: Optional[GraphIndex] = None
        self._removed: Optional[bytearray] = None
        self._removed_positions: Tuple[int, ...] = ()
        # Built on first use by delays_to() (on the base): reversed CSR and
        # each forward position's reverse slot; per-target memo.
        self._reverse: Optional[
            Tuple[List[int], List[int], List[float], List[int]]
        ] = None
        self._to_target: Dict[int, Tuple[array[float], array[int]]] = {}
        self._from_source: Dict[int, array[float]] = {}
        #: Work tallies: Dijkstra runs started and nodes they labelled.
        self.searches = 0
        self.nodes_reached = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._names)

    @property
    def num_edges(self) -> int:
        return len(self._neighbors)

    @property
    def names(self) -> List[str]:
        """Node names in id order (sorted)."""
        return list(self._names)

    def node_id(self, name: str) -> int:
        return self._ids[name]

    def node_name(self, node_id: int) -> str:
        return self._names[node_id]

    def edge_position(self, u: int, v: int) -> int:
        """CSR position of the link ``u -> v`` (KeyError when absent)."""
        return self._edge_pos[(u, v)]

    def edge_positions(self, links: Iterable[Tuple[str, str]]) -> List[int]:
        """CSR positions of name-keyed links, in order; links absent from
        the graph are skipped."""
        ids = self._ids
        edge_pos = self._edge_pos
        positions: List[int] = []
        for src, dst in links:
            u = ids.get(src)
            v = ids.get(dst)
            if u is None or v is None:
                continue
            pos = edge_pos.get((u, v))
            if pos is not None:
                positions.append(pos)
        return positions

    def csr(self) -> Csr:
        """The shared per-link lists; a view's removed links are still in
        them (see :meth:`without_edges`)."""
        return Csr(
            self._indptr, self._tails, self._neighbors, self._delays,
            self._capacities,
        )

    def without_edges(self, positions: Iterable[int]) -> "GraphIndex":
        """A view of this index with the links at CSR ``positions``
        removed, without copying the graph.

        The view shares every list with its base and relaxes links in the
        order an index of the reduced network would (module docstring), so
        all its searches return what that index returns.  Its
        ``delays_to``/``delays_from`` memos are its own.  A caller-built
        edge mask passed to :meth:`dijkstra_ids` must include the removed
        positions; :meth:`edge_mask` masks do.
        """
        base = self._base or self
        view = copy.copy(base)
        view._base = base
        view._removed_positions = self._removed_positions + tuple(positions)
        removed = bytearray(len(self._neighbors))
        for pos in view._removed_positions:
            removed[pos] = 1
        view._removed = removed
        view._to_target = {}
        view._from_source = {}
        view.searches = view.nodes_reached = 0
        return view

    @property
    def delay_array(self) -> FloatArray:
        return np.asarray(self._delays, dtype=np.float64)

    @property
    def capacity_array(self) -> FloatArray:
        return np.asarray(self._capacities, dtype=np.float64)

    # ------------------------------------------------------------------
    # Exclusion-set compilation
    # ------------------------------------------------------------------
    def edge_mask(
        self, excluded_links: Optional[Set[Tuple[str, str]]]
    ) -> Optional[bytearray]:
        """A per-CSR-position bytearray mask for a name-keyed link set.

        Links absent from the graph are ignored, matching the legacy
        behavior of an exclusion set entry that never comes up.  On a view
        the mask also covers the removed links.
        """
        if not excluded_links:
            return self._removed
        mask = self._fresh_edge_mask()
        for pos in self.edge_positions(excluded_links):
            mask[pos] = 1
        return mask

    def _fresh_edge_mask(self) -> bytearray:
        """A new per-position mask with only the view's removed links set."""
        if self._removed is not None:
            return bytearray(self._removed)
        return bytearray(len(self._neighbors))

    def node_mask(
        self, excluded_nodes: Optional[Set[str]]
    ) -> Optional[bytearray]:
        """A per-node bytearray mask for a name-keyed node set."""
        if not excluded_nodes:
            return None
        mask = bytearray(len(self._names))
        ids = self._ids
        for name in excluded_nodes:
            node_id = ids.get(name)
            if node_id is not None:
                mask[node_id] = 1
        return mask

    # ------------------------------------------------------------------
    # Core integer Dijkstra
    # ------------------------------------------------------------------
    def dijkstra_ids(
        self,
        src: int,
        dst: int = -1,
        excluded_edges: Optional[bytearray] = None,
        excluded_nodes: Optional[bytearray] = None,
        bound: Optional[Sequence[float]] = None,
        limit: float = _INF,
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[float], List[int], List[int]]:
        """Single-source Dijkstra over integer ids.

        Returns ``(dist, parent, touched)``: distances (``inf`` where
        unreached), parent ids (``-1`` where none), and node ids in the
        order their distance was first assigned — the legacy dict
        insertion order, which :meth:`shortest_path_delays` reproduces.
        ``dst = -1`` sweeps the whole component; otherwise the search
        stops once ``dst`` is settled.

        ``bound`` (a per-node lower bound on the remaining delay to
        ``dst``) and ``limit`` make the search goal-directed: a node whose
        tentative distance plus bound exceeds ``limit`` is never labelled.
        Distances and parents of every node on a path no longer than
        ``limit`` are those of the unbounded search (module docstring).

        ``weights`` (non-negative, one per CSR position) replaces the link
        delays as edge lengths for this call.
        """
        if excluded_edges is None:
            excluded_edges = self._removed
        return self._dijkstra(
            self._indptr, self._neighbors,
            self._delays if weights is None else weights,
            src, dst, excluded_edges, excluded_nodes, bound, limit,
        )

    def _dijkstra(
        self,
        indptr: List[int],
        neighbors: List[int],
        delays: Sequence[float],
        src: int,
        dst: int,
        excluded_edges: Optional[bytearray],
        excluded_nodes: Optional[bytearray],
        bound: Optional[Sequence[float]],
        limit: float,
    ) -> Tuple[List[float], List[int], List[int]]:
        """The one Dijkstra loop, over the forward or the reversed CSR."""
        n = len(self._names)
        dist: List[float] = [_INF] * n
        parent: List[int] = [-1] * n
        touched: List[int] = []
        if excluded_nodes is not None and excluded_nodes[src]:
            return dist, parent, touched
        done = bytearray(n)
        dist[src] = 0.0
        touched.append(src)
        heap: List[Tuple[float, int]] = [(0.0, src)]
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d, u = pop(heap)
            if done[u]:
                continue
            done[u] = 1
            if u == dst:
                break
            for pos in range(indptr[u], indptr[u + 1]):
                v = neighbors[pos]
                if done[v]:
                    continue
                if excluded_nodes is not None and excluded_nodes[v]:
                    continue
                if excluded_edges is not None and excluded_edges[pos]:
                    continue
                nd = d + delays[pos]
                if nd < dist[v]:
                    if bound is not None and nd + bound[v] > limit:
                        continue
                    if dist[v] == _INF:
                        touched.append(v)
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, v))
        self.searches += 1
        self.nodes_reached += len(touched)
        return dist, parent, touched

    def delays_to(self, t: int) -> Tuple[array[float], array[int]]:
        """``(h, next_hop)`` toward node ``t``, memoized per target.

        ``h[v]`` is the minimum delay ``v -> t`` in the unrestricted graph
        (``inf`` when ``t`` cannot be reached from ``v``) and
        ``next_hop[v]`` the following node on one such path (``-1`` at
        ``t`` and where ``h`` is ``inf``).  One full sweep from ``t`` over
        the reversed edges, summed backward: a *bound* for goal-directed
        search, with no tie-break contract.

        Cost: O(m + n log n) time per distinct target and 12 bytes x n
        kept per target for the life of the index (the reversed CSR, built
        on first use, is another O(n + m)) — callers sweep from a few
        gateways or over zoo-size graphs, not all targets of a 10k graph.
        """
        memo = self._to_target.get(t)
        if memo is None:
            base = self._base or self
            if base._reverse is None:
                base._reverse = base._reversed_csr()
            indptr, tails, delays, slot = base._reverse
            mask: Optional[bytearray] = None
            if self._removed_positions:
                mask = bytearray(len(slot))
                for pos in self._removed_positions:
                    mask[slot[pos]] = 1
            dist, parent, _ = self._dijkstra(
                indptr, tails, delays, t, -1, mask, None, None, _INF
            )
            memo = self._to_target[t] = (array("d", dist), array("i", parent))
        return memo

    def delays_from(self, s: int) -> array[float]:
        """Minimum delay ``s -> v`` for every node ``v``, memoized per source.

        ``inf`` where ``v`` is unreachable.  The forward sweep that
        :meth:`shortest_path_delays` runs, so the values are bit-identical
        to it; 8 bytes x n kept per source for the life of the index.
        """
        memo = self._from_source.get(s)
        if memo is None:
            dist, _, _ = self.dijkstra_ids(s)
            memo = self._from_source[s] = array("d", dist)
        return memo

    def _reversed_csr(
        self,
    ) -> Tuple[List[int], List[int], List[float], List[int]]:
        """CSR of the edge-reversed graph (counting sort by head node), and
        the reverse slot of every forward position."""
        n = len(self._names)
        forward = self._indptr
        heads = self._neighbors
        forward_delays = self._delays
        indptr = [0] * (n + 1)
        for v in heads:
            indptr[v + 1] += 1
        for v in range(n):
            indptr[v + 1] += indptr[v]
        fill = indptr[:n]
        tails = [0] * len(heads)
        delays = [0.0] * len(heads)
        slot_of = [0] * len(heads)
        for u in range(n):
            for pos in range(forward[u], forward[u + 1]):
                v = heads[pos]
                slot = fill[v]
                tails[slot] = u
                delays[slot] = forward_delays[pos]
                slot_of[pos] = slot
                fill[v] = slot + 1
        return indptr, tails, delays, slot_of

    @staticmethod
    def extract_ids(parent: List[int], src: int, dst: int) -> IdPath:
        """Reconstruct the id path ``src -> dst`` from a parent array."""
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return tuple(path)

    def to_names(self, id_path: IdPath) -> Path:
        names = self._names
        return tuple(names[i] for i in id_path)

    # ------------------------------------------------------------------
    # Name-level algorithms (legacy-compatible surface)
    # ------------------------------------------------------------------
    def shortest_path(
        self,
        src: str,
        dst: str,
        excluded_links: Optional[Set[Tuple[str, str]]] = None,
        excluded_nodes: Optional[Set[str]] = None,
    ) -> Path:
        """Lowest-delay path; legacy-identical errors and tie-breaking."""
        if src == dst:
            raise ValueError("source and destination must differ")
        s = self._ids.get(src)
        if s is None:
            raise KeyError(f"unknown node {src!r}")
        t = self._ids.get(dst, -1)
        if t < 0:
            raise NoPathError(f"no path {src} -> {dst}")
        dist, parent, _ = self.dijkstra_ids(
            s, t, self.edge_mask(excluded_links), self.node_mask(excluded_nodes)
        )
        if dist[t] == _INF:
            raise NoPathError(f"no path {src} -> {dst}")
        return self.to_names(self.extract_ids(parent, s, t))

    def shortest_path_delays(self, src: str) -> Dict[str, float]:
        """Delays to every reachable node, in legacy dict order."""
        s = self._ids.get(src)
        if s is None:
            raise KeyError(f"unknown node {src!r}")
        dist, _, touched = self.dijkstra_ids(s)
        names = self._names
        return {names[v]: dist[v] for v in touched if v != s}

    def all_pairs_shortest_paths(
        self, node_order: Optional[List[str]] = None
    ) -> Dict[Tuple[str, str], Path]:
        """Lowest-delay path for every connected ordered node pair.

        ``node_order`` reproduces the legacy result-dict ordering (network
        insertion order); defaults to id (sorted-name) order.  Quadratic
        output: keep it off ingest-scale graphs.
        """
        return {
            pair: self.to_names(path)
            for pair, path in self.all_pairs_shortest_ids(node_order).items()
        }

    def all_pairs_shortest_ids(
        self, node_order: Optional[List[str]] = None
    ) -> Dict[Tuple[str, str], IdPath]:
        """:meth:`all_pairs_shortest_paths`, with the paths as id paths."""
        order = node_order if node_order is not None else self._names
        ids = self._ids
        paths: Dict[Tuple[str, str], IdPath] = {}
        for src in order:
            s = ids[src]
            _, parent, _ = self.dijkstra_ids(s)
            for dst in order:
                t = ids[dst]
                if t != s and parent[t] >= 0:
                    paths[(src, dst)] = self.extract_ids(parent, s, t)
        return paths

    def k_shortest_paths(self, src: str, dst: str) -> Iterator[Path]:
        """Yen's algorithm over integer ids; yields legacy-identical paths.

        Spur-root delays accumulate incrementally per hop (the legacy
        implementation's O(L²) recomputation, fixed), in the same float
        addition order, so candidate ordering matches ulp for ulp.  Every
        search is bounded by :meth:`delays_to` and spurs start at the
        previous path's deviation index (Lawler); both leave the yielded
        paths unchanged — see the module's bit-identity contract.
        """
        if src == dst:
            raise ValueError("source and destination must differ")
        s = self._ids.get(src)
        if s is None:
            raise KeyError(f"unknown node {src!r}")
        t = self._ids.get(dst, -1)
        if t < 0:
            return
        for id_path in self.k_shortest_ids(s, t):
            yield self.to_names(id_path)

    def k_shortest_ids(
        self, s: int, t: int, max_delay: float = _INF
    ) -> Iterator[IdPath]:
        """:meth:`k_shortest_paths` over ids (``s != t``).

        ``max_delay`` caps every spur search at ``max_delay`` minus its
        root's delay, which changes only candidates longer than the cap;
        see the module docstring for when that leaves a caller's answer
        unchanged.
        """
        h, next_hop = self.delays_to(t)
        if h[s] == _INF:
            return
        # The searches run in helpers, so no per-search array outlives
        # them into this suspended frame (module docstring, "Memory").
        first = self.extract_ids(
            self.dijkstra_ids(s, t, bound=h, limit=h[s] * _SLACK)[1], s, t
        )
        yield first

        produced: List[IdPath] = [first]
        candidates: List[Tuple[float, IdPath]] = []
        # Every path ever queued -> the spur index it deviated at.
        deviation: Dict[IdPath, int] = {first: 0}
        while True:
            self._spur_round(
                produced, candidates, deviation, t, h, next_hop, max_delay
            )
            if not candidates:
                return
            _, best = heapq.heappop(candidates)
            produced.append(best)
            yield best

    def _spur_round(
        self,
        produced: List[IdPath],
        candidates: List[Tuple[float, IdPath]],
        deviation: Dict[IdPath, int],
        t: int,
        h: Sequence[float],
        next_hop: Sequence[int],
        max_delay: float,
    ) -> None:
        """Yen's spur searches off the last produced path: pushes each new
        ``(delay, path)`` candidate onto ``candidates`` and records its
        deviation index in ``deviation``."""
        delays = self._delays
        edge_pos = self._edge_pos
        prev = produced[-1]
        first_spur = deviation[prev]
        excluded_nodes = bytearray(len(self._names))
        root_delay = 0.0
        for i in range(len(prev) - 1):
            spur = prev[i]
            if i > 0:
                root_delay += delays[edge_pos[(prev[i - 1], prev[i])]]
                excluded_nodes[prev[i - 1]] = 1
            if i < first_spur:
                # Lawler: an earlier path sharing this root already ran
                # this exact search; its candidate is in `deviation`.
                continue
            root = prev[: i + 1]
            excluded_edges = self._fresh_edge_mask()
            for existing in produced:
                if len(existing) > i and existing[: i + 1] == root:
                    excluded_edges[
                        edge_pos[(existing[i], existing[i + 1])]
                    ] = 1
            sdist, sparent, _ = self.dijkstra_ids(
                spur, t, excluded_edges, excluded_nodes, h,
                min(
                    self._spur_limit(
                        spur, t, h, next_hop, excluded_edges,
                        excluded_nodes,
                    ),
                    max_delay - root_delay,
                ),
            )
            if sdist[t] == _INF:
                continue
            candidate = root[:-1] + self.extract_ids(sparent, spur, t)
            if candidate in deviation:
                continue
            deviation[candidate] = i
            heapq.heappush(candidates, (root_delay + sdist[t], candidate))

    def _spur_limit(
        self,
        spur: int,
        t: int,
        h: Sequence[float],
        next_hop: Sequence[int],
        excluded_edges: bytearray,
        excluded_nodes: bytearray,
    ) -> float:
        """Length (plus slack) of a real ``spur -> t`` path in the
        restricted graph, to bound the spur search with.

        Tries allowed first hops ``v`` in ascending ``delay + h[v]`` and
        takes the first whose ``next_hop`` chain reaches ``t`` clear of the
        spur node and the excluded root nodes (excluded edges all leave the
        spur node, so the chain cannot cross one).  With no such hop the
        search is bounded only by reachability.
        """
        neighbors = self._neighbors
        delays = self._delays
        hops: List[Tuple[float, int]] = []
        for pos in range(self._indptr[spur], self._indptr[spur + 1]):
            v = neighbors[pos]
            if excluded_edges[pos] or excluded_nodes[v] or h[v] == _INF:
                continue
            hops.append((delays[pos] + h[v], v))
        hops.sort()
        for length, v in hops:
            while v != t and v != spur and not excluded_nodes[v]:
                v = next_hop[v]
            if v == t:
                return length * _SLACK
        return _REACHABLE_ONLY


def graph_index(network: Network) -> GraphIndex:
    """The network's compiled :class:`GraphIndex`, memoized per topology.

    The cache token is the network's memoized signature *object*: every
    mutation resets ``_signature_memo`` to ``None`` and any later
    recomputation creates a new string, so an ``is`` check detects staleness
    without hashing the topology again — including mutations that restore
    the previous signature value.
    """
    from repro.net.paths import network_signature

    cached: Optional[Tuple[str, GraphIndex]] = getattr(
        network, "_graph_index", None
    )
    token = network._signature_memo
    if cached is not None and token is not None and cached[0] is token:
        return cached[1]
    token = network_signature(network)
    rec = recorder()
    if rec.enabled:
        rec.counter("index.build")
    with rec.span("index_build"):
        index = GraphIndex(network)
    network._graph_index = (token, index)
    return index


#: Landmarks a :class:`LocalityPruner` sweeps from (fewer on smaller graphs).
N_LANDMARKS = 8


class LocalityPruner:
    """Landmark-based locality prefilter for k-shortest-path enumeration.

    On ingest-scale graphs, enumerating path alternatives for *every* pair
    is what blows up — not the single shortest path.  The pruner picks a
    deterministic set of :data:`N_LANDMARKS` landmarks (farthest-point
    sampling seeded at the highest-degree node), precomputes one delay
    sweep per landmark, and lower-bounds any pair's delay via the triangle
    inequality::

        d(s, t) >= max_L |d(L, s) - d(L, t)|

    Pairs whose lower bound exceeds ``radius_s`` are declared non-local:
    :class:`~repro.net.paths.KspCache` then serves only their single
    shortest path and bumps the ``ksp.pruned`` metric instead of running
    Yen's.  The bound is exact for duplex (symmetric) topologies — every
    network this stack builds — and pruning never alters which paths are
    returned for admitted pairs, so results at zoo scale (pruner off) are
    untouched; pruned runs are explicitly approximate and labelled so by
    their callers (see ``tm.regions`` for the demand-side analogue).
    """

    def __init__(self, network: Network, radius_s: float) -> None:
        if radius_s < 0:
            raise ValueError(f"radius must be non-negative, got {radius_s}")
        index = graph_index(network)
        self._index = index
        self.radius_s = radius_s
        n = index.num_nodes
        landmarks: List[int] = []
        sweeps: List[List[float]] = []
        if n > 0:
            indptr = index._indptr
            first = 0
            best_degree = -1
            for node_id in range(n):
                degree = indptr[node_id + 1] - indptr[node_id]
                if degree > best_degree:
                    best_degree = degree
                    first = node_id
            landmarks.append(first)
            dist, _, _ = index.dijkstra_ids(first)
            sweeps.append(dist)
            while len(landmarks) < min(N_LANDMARKS, n):
                # Farthest-point: maximize the min distance to any chosen
                # landmark; unreachable nodes sort first so disconnected
                # components each get a landmark.  Ties -> lowest id.
                best_id = -1
                best_score = -1.0
                chosen = bytearray(n)
                for node_id in landmarks:
                    chosen[node_id] = 1
                for node_id in range(n):
                    if chosen[node_id]:
                        continue
                    score = min(dist[node_id] for dist in sweeps)
                    if score > best_score:
                        best_score = score
                        best_id = node_id
                if best_id < 0:
                    break
                landmarks.append(best_id)
                dist, _, _ = index.dijkstra_ids(best_id)
                sweeps.append(dist)
        self._landmarks = landmarks
        self._sweeps = sweeps

    @property
    def landmarks(self) -> List[str]:
        """Landmark node names, in selection order."""
        return [self._index.node_name(i) for i in self._landmarks]

    def lower_bound_s(self, src: str, dst: str) -> float:
        """A delay lower bound for the pair; 0.0 when nothing is known."""
        ids = self._index._ids
        s = ids.get(src)
        t = ids.get(dst)
        if s is None or t is None or s == t:
            return 0.0
        bound = 0.0
        for dist in self._sweeps:
            ds = dist[s]
            dt = dist[t]
            if ds == _INF or dt == _INF:
                continue
            gap = ds - dt if ds >= dt else dt - ds
            if gap > bound:
                bound = gap
        return bound

    def admits(self, src: str, dst: str) -> bool:
        """False when the pair is provably farther apart than the radius.

        Unknown names are admitted — error handling belongs to the path
        algorithms, not the prefilter.
        """
        return self.lower_bound_s(src, dst) <= self.radius_s
