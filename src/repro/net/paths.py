"""Shortest paths and k-shortest paths.

Routing in the paper is delay-based throughout, so all algorithms here use
link propagation delay as the edge weight.  The k-shortest-paths routine is
Yen's algorithm [Yen 1970], exposed both as a lazy generator and through
:class:`KspCache`.  The paper notes that in its LDR system "the bottleneck
is not the linear optimizer, but the k shortest paths algorithm, the results
of which can be readily cached" — the cache class is that optimization, and
the cold/warm cache distinction is what its Figure 15 measures.

Since the Internet-scale ingest work, the public functions here delegate to
the integer-indexed sparse core in :mod:`repro.net.index` (CSR adjacency,
array heaps, bytearray exclusion masks) and are bit-identical to the
original string-keyed implementations, which survive as the test suite's
``legacy_*`` parity oracles (``tests/oracles.py``).  Yen's searches
there are goal-directed — bounded by a memoized distance-to-target sweep,
spurred only from the deviation node onward — and still bit-identical; the
argument is in that module's docstring.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.durable import cache_path, write_atomic
from repro.net.graph import Network
from repro.net.index import (
    _SLACK,
    GraphIndex,
    LocalityPruner,
    NoPathError,
    graph_index,
)
from repro.telemetry import recorder

__all__ = [
    "GraphIndex",
    "KspCache",
    "KspCacheMismatchError",
    "LocalityPruner",
    "NoPathError",
    "all_pairs_shortest_paths",
    "graph_index",
    "is_simple",
    "k_shortest_paths",
    "ksp_cache_path",
    "network_signature",
    "path_bottleneck_bps",
    "path_delay_s",
    "path_links",
    "shortest_path",
    "shortest_path_delays",
]

Path = Tuple[str, ...]

class KspCacheMismatchError(ValueError):
    """Raised when a persisted KSP cache does not match the network.

    Paths cached for one topology are meaningless (and silently wrong) on
    another, so :meth:`KspCache.load` verifies a content hash of the
    network before accepting any cached state.
    """


def ksp_cache_path(directory: "os.PathLike[str] | str", network: Network) -> str:
    """Canonical location of a network's persisted KSP cache.

    Every producer and consumer of persistent caches (the experiment
    engine's workers and dispatch shards) must agree on this naming,
    so it lives here rather than being rebuilt at each call site; the
    name follows :func:`repro.durable.cache_path`, so the cache sweep
    bounds it.  Pure path computation — :meth:`KspCache.dump_file` (the
    writer) creates the directory.
    """
    return cache_path(directory, "ksp", network_signature(network))


def network_signature(network: Network) -> str:
    """Content hash of a network's routing-relevant state.

    Covers the name, every node (with coordinates) and every directed link
    (with capacity and delay).  Any mutation — added/removed links, changed
    delays or capacities — changes the signature, which is what lets
    persisted KSP caches reject stale state instead of serving paths for a
    topology that no longer exists.

    Memoized on the network (every :class:`Network` mutation resets the
    memo), so repeated lookups are O(1) after the first computation.  The
    memoized *object* also serves as the staleness token for
    :func:`repro.net.index.graph_index`.
    """
    memo = network._signature_memo
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    digest.update(network.name.encode())
    for name in sorted(network.node_names):
        node = network.node(name)
        digest.update(
            f"N|{node.name}|{node.lat_deg!r}|{node.lon_deg!r}".encode()
        )
    for key in sorted(link.key for link in network.links()):
        link = network.link(*key)
        digest.update(
            f"L|{link.src}|{link.dst}|{link.capacity_bps!r}|{link.delay_s!r}".encode()
        )
    network._signature_memo = digest.hexdigest()
    return network._signature_memo


def path_links(path: Sequence[str]) -> List[Tuple[str, str]]:
    """Directed link keys traversed by a path."""
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


def path_delay_s(network: Network, path: Sequence[str]) -> float:
    """Total propagation delay of a path."""
    return sum(network.link(u, v).delay_s for u, v in path_links(path))


def path_bottleneck_bps(  # analysis: allow[R401] tests/oracles.py's legacy APA oracle
    network: Network, path: Sequence[str]
) -> float:
    """Capacity of the most constrained link on a path."""
    links = path_links(path)
    if not links:
        raise ValueError("bottleneck of an empty path is undefined")
    return min(network.link(u, v).capacity_bps for u, v in links)


def is_simple(path: Sequence[str]) -> bool:  # analysis: allow[R401] tests check Yen's paths with it
    """True if the path visits no node twice."""
    return len(set(path)) == len(path)


# ----------------------------------------------------------------------
# Dijkstra and Yen (on the indexed core)
# ----------------------------------------------------------------------
def shortest_path(
    network: Network,
    src: str,
    dst: str,
    excluded_links: Optional[Set[Tuple[str, str]]] = None,
    excluded_nodes: Optional[Set[str]] = None,
) -> Path:
    """Lowest-delay path from ``src`` to ``dst``.

    ``excluded_links`` and ``excluded_nodes`` support Yen's spur-path
    computation and APA's route-around queries without copying the graph.

    Raises :class:`NoPathError` when the destination is unreachable.
    """
    return graph_index(network).shortest_path(
        src, dst, excluded_links, excluded_nodes
    )


def shortest_path_delays(network: Network, src: str) -> Dict[str, float]:
    """Delays of the lowest-delay paths from ``src`` to every reachable node."""
    return graph_index(network).shortest_path_delays(src)


def all_pairs_shortest_paths(  # analysis: allow[R401] parity surface of all_pairs_shortest_ids
    network: Network,
) -> Dict[Tuple[str, str], Path]:
    """Lowest-delay path for every connected ordered node pair.

    Quadratic output: at ingest scale (10k+ nodes) this materializes 10^8
    paths.  Prefer per-source :func:`shortest_path_delays` sweeps or
    locality-pruned KSP there.
    """
    return graph_index(network).all_pairs_shortest_paths(
        node_order=network.node_names
    )


def k_shortest_paths(network: Network, src: str, dst: str) -> Iterator[Path]:
    """Lazily yield simple paths from ``src`` to ``dst`` in non-decreasing
    delay order (Yen's algorithm, on the integer-indexed core).

    The generator yields nothing if the endpoints are disconnected, and
    stops once every simple path has been produced.
    """
    return graph_index(network).k_shortest_paths(src, dst)


class KspCache:
    """Caches k-shortest-path computations for one (immutable) network.

    The cache keeps, per node pair, the lazy Yen generator plus every path
    it has produced so far, so asking for ``k`` paths after having asked for
    ``k' < k`` only computes the missing ``k - k'``.  A suspended generator
    holds its produced and queued paths, not its searches' node- and
    link-sized arrays (see :mod:`repro.net.index`, "Memory"): on the
    3 300-node ``ingest_scale`` graph a pair asked for four paths costs
    3.4 KB, paths included, where it cost 109 KB while the generator
    pinned its last searches.  Mutating the network after creating a cache
    invalidates it; create a new cache instead.

    An optional :class:`~repro.net.index.LocalityPruner` turns the cache
    into a locality-pruned one: pairs the pruner rejects (provably farther
    apart than its radius) are served their single shortest path only,
    never running Yen's for alternatives, and each such request bumps the
    ``ksp.pruned`` metric.  Pruning is an explicit approximation for
    ingest-scale graphs; without a pruner behavior is exact and unchanged.

    **Derived caches.**  Given ``base`` (an unpruned cache of the network
    ``network`` was cut from) plus the ``failed_links`` (duplex: both
    directions) and ``failed_nodes`` that ``network`` lacks, the cache
    serves a pair from the base's Yen order instead of running Yen on
    ``network``.  Every simple path of the cut network is a simple path of
    the base with the same delay, so its ``k`` shortest paths are the
    first ``k`` base paths that avoid the failures ("survivors") — as
    long as no tie lets Yen order them differently.  A filtered list is
    served only when that is proved, by three conditions:

    * consecutive survivors differ in delay by more than the index's
      relative slack (``1 + 1e-9``, far beyond float-summation noise);
    * the base path after the ``k``-th survivor is slower than it by the
      same margin, or the base has no more paths;
    * at most ``2k + 6`` base paths were needed to decide it.

    Any other pair (ties near the cut, too many failed paths, an endpoint
    that failed) runs Yen on ``network`` itself for good, continuing
    after the lists already served, which are Yen's own prefix.  With no
    failures at all (a surge or locality variant: the same topology,
    renamed) the base lists are served as they are.  Served lists are
    materialized in this cache, so :meth:`dump`, :meth:`load` and
    :meth:`total_cached` see an ordinary cache.

    Materialized paths can be persisted with :meth:`dump` / :meth:`dump_file`
    and restored with :meth:`load`; persisted state is keyed by
    :func:`network_signature`, so a cache saved for one topology is
    rejected on any other.
    """

    #: Version tag of the :meth:`dump` payload layout.  Format 2 stores
    #: paths as integer indexes into a dumped name table; :meth:`load`
    #: rejects every other format (the file is a cache: it is recomputed).
    DUMP_FORMAT = 2

    def __init__(
        self,
        network: Network,
        pruner: Optional[LocalityPruner] = None,
        *,
        base: Optional["KspCache"] = None,
        failed_links: Iterable[Tuple[str, str]] = (),
        failed_nodes: Iterable[str] = (),
    ) -> None:
        if base is not None and (pruner is not None or base.pruner is not None):
            raise ValueError("a derived KSP cache needs an unpruned base")
        self._network = network
        self._pruner = pruner
        self._generators: Dict[Tuple[str, str], Iterator[Path]] = {}
        self._paths: Dict[Tuple[str, str], List[Path]] = {}
        self._exhausted: Set[Tuple[str, str]] = set()
        self._base = base
        self._cut: Set[Tuple[str, str]] = set()
        for a, b in failed_links:
            self._cut.update(((a, b), (b, a)))
        self._down: Set[str] = set(failed_nodes)
        # Per derived pair still open: see :meth:`_derive`.
        self._scans: Dict[Tuple[str, str], Tuple[int, float]] = {}

    @property
    def network(self) -> Network:
        return self._network

    @property
    def pruner(self) -> Optional[LocalityPruner]:
        return self._pruner

    @property
    def base(self) -> Optional["KspCache"]:
        """The cache this one derives from (``None``: a plain cache)."""
        return self._base

    def get(self, src: str, dst: str, k: int) -> List[Path]:
        """The first ``k`` shortest paths (fewer if fewer exist).

        With a pruner attached, non-local pairs are clamped to their single
        shortest path (``ksp.pruned`` counts every such request).  On a
        derived cache ``ksp.derived`` counts the requests served from the
        base and ``ksp.derived_fallback`` those that ran Yen here.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        limit = k
        rec = recorder()
        if (
            self._pruner is not None
            and k > 1
            and not self._pruner.admits(src, dst)
        ):
            limit = 1
            if rec.enabled:
                rec.counter("ksp.pruned")
        key = (src, dst)
        paths = self._paths.get(key, [])
        if len(paths) >= limit or key in self._exhausted:
            if rec.enabled:
                rec.counter("ksp.cache_hit")
            return paths[:limit]
        if rec.enabled:
            rec.counter("ksp.cache_miss")
        # The span covers only materialization (deriving or running
        # Yen's), never cache hits — "ksp" trace seconds are the paper's
        # "readily cached" bottleneck, not dictionary lookups.
        with rec.span("ksp"):
            if self._base is None:
                self._extend(key, limit)
            elif self._derive(self._base, key, limit):
                if rec.enabled:
                    rec.counter("ksp.derived")
            else:
                if rec.enabled:
                    rec.counter("ksp.derived_fallback")
                self._extend(key, limit)
        return self._paths[key][:limit]

    def _extend(self, key: Tuple[str, str], limit: int) -> List[Path]:
        """Run Yen on this cache's network until ``key`` has ``limit``
        paths or none are left; returns the pair's materialized list."""
        rec = recorder()
        if rec.enabled:
            index = graph_index(self._network)
            searches, reached = index.searches, index.nodes_reached
        paths = self._paths.get(key, [])
        generator = self._generators.get(key)
        if generator is None:
            # After :meth:`load` (or once a derived pair falls back) only
            # the materialized paths exist: recreate the (deterministic)
            # generator and skip them.
            generator = k_shortest_paths(self._network, *key)
            for _ in paths:
                next(generator)
        while len(paths) < limit and key not in self._exhausted:
            try:
                paths.append(next(generator))
            except StopIteration:
                self._exhausted.add(key)
        # Registered only now: an invalid pair raised on the first next()
        # above and must leave nothing behind for dump()/total_cached().
        self._generators[key] = generator
        self._paths[key] = paths
        if rec.enabled:
            rec.counter("ksp.searches", index.searches - searches)
            rec.counter("ksp.nodes_reached", index.nodes_reached - reached)
        return paths

    def _prefix(self, key: Tuple[str, str], n: int) -> List[Path]:
        """This cache's list for ``key`` holding at least ``n`` paths, or
        all of them (the list itself: callers must not mutate it)."""
        paths = self._paths.get(key)
        if paths is None or (len(paths) < n and key not in self._exhausted):
            paths = self._extend(key, n)
        return paths

    def _derive(self, base: "KspCache", key: Tuple[str, str], k: int) -> bool:
        """Serve ``k`` paths for ``key`` from ``base``'s Yen order when
        the class docstring's conditions prove them equal to Yen here;
        False (the caller then runs Yen here, for good) otherwise."""
        if (
            key in self._generators
            or key[0] == key[1]
            or not self._down.isdisjoint(key)
        ):
            return False
        if not self._cut and not self._down:
            # The same topology: Yen's answer, ties included, is the base's.
            paths = base._prefix(key, k)
            self._paths[key] = paths[:k]
            if len(paths) <= k and key in base._exhausted:
                self._exhausted.add(key)
            return True
        # Appended to the served list, which keeps them on success; a
        # failed scan drops them again, so it never serves a partial list.
        kept = self._paths.get(key, [])
        served = len(kept)
        # Base paths scanned so far, and the last survivor's delay.
        seen, last = self._scans.pop(key, (0, 0.0))
        while seen < 2 * k + 6:
            paths = base._prefix(key, seen + 1)
            if len(paths) <= seen:
                # The base has no more paths, so ``kept`` is all of them.
                self._paths[key] = kept
                self._exhausted.add(key)
                return True
            path = paths[seen]
            if len(kept) == k:
                # Look-ahead: the next base path must be clearly slower.
                if path_delay_s(base.network, path) > last * _SLACK:
                    self._paths[key] = kept
                    self._scans[key] = (seen, last)
                    return True
                break
            seen += 1
            if self._down.isdisjoint(path) and self._cut.isdisjoint(
                path_links(path)
            ):
                delay = path_delay_s(base.network, path)
                if kept and not delay > last * _SLACK:
                    break
                kept.append(path)
                last = delay
        del kept[served:]
        return False

    def total_cached(self) -> int:
        """Total materialized paths across all pairs.

        Iterates the cache's own (sparse) pair map — never the quadratic
        node-pair space — so it stays cheap on ingest-scale networks.
        """
        return sum(len(paths) for paths in self._paths.values())

    def shortest(self, src: str, dst: str) -> Path:
        """The single shortest path; raises :class:`NoPathError` if none."""
        paths = self.get(src, dst, 1)
        if not paths:
            raise NoPathError(f"no path {src} -> {dst}")
        return paths[0]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the materialized paths.

        Only produced paths (and which pairs are exhausted) are captured;
        generator state is rebuilt lazily on demand after :meth:`load`.
        Paths are stored as integer indexes into the payload's ``nodes``
        name table (format 2), which shrinks persisted caches roughly by
        the average name length.
        """
        name_set: Set[str] = set()
        for (src, dst), paths in self._paths.items():
            name_set.add(src)
            name_set.add(dst)
            for path in paths:
                name_set.update(path)
        names = sorted(name_set)
        index_of = {name: i for i, name in enumerate(names)}
        pairs = []
        for (src, dst), paths in sorted(self._paths.items()):
            pairs.append(
                {
                    "src": index_of[src],
                    "dst": index_of[dst],
                    "paths": [[index_of[node] for node in path] for path in paths],
                    "exhausted": (src, dst) in self._exhausted,
                }
            )
        return {
            "format": self.DUMP_FORMAT,
            "signature": network_signature(self._network),
            "nodes": names,
            "pairs": pairs,
        }

    @classmethod
    def load(cls, payload: Dict[str, Any], network: Network) -> "KspCache":
        """Rebuild a cache from :meth:`dump` output.

        Raises :class:`KspCacheMismatchError` if the payload was dumped
        for a different (or since-mutated) network, uses another format
        (a persisted file is a cache: callers recompute and rewrite it),
        or is malformed.
        """
        if not isinstance(payload, dict):
            raise KspCacheMismatchError("KSP cache payload is not an object")
        fmt = payload.get("format")
        if fmt != cls.DUMP_FORMAT:
            raise KspCacheMismatchError(
                f"unsupported KSP cache format {fmt!r}"
            )
        signature = network_signature(network)
        if payload.get("signature") != signature:
            raise KspCacheMismatchError(
                f"KSP cache was dumped for a different network "
                f"(cache {payload.get('signature')!r}, network {signature!r})"
            )
        cache = cls(network)
        try:
            # A dict, not the list: a negative or otherwise foreign index
            # must miss (KeyError), never wrap around to the wrong node.
            table: Dict[object, str] = dict(enumerate(payload["nodes"]))
            for entry in payload["pairs"]:
                key = (table[entry["src"]], table[entry["dst"]])
                cache._paths[key] = [
                    tuple(table[i] for i in path)
                    for path in entry["paths"]
                ]
                if entry["exhausted"]:
                    cache._exhausted.add(key)
        except (KeyError, TypeError) as exc:
            # Malformed structure (hand-edited file, external writer, schema
            # drift without a format bump) must hit the same rejected-cache
            # path as a wrong signature, not crash the caller.
            raise KspCacheMismatchError(
                f"malformed KSP cache payload: {exc!r}"
            )
        return cache

    def dump_file(self, path: "os.PathLike[str] | str") -> None:
        """Write :meth:`dump` output as JSON, atomically (concurrent
        loaders never see a torn file); read it back with
        :func:`repro.durable.read_cache` and :meth:`load`."""
        write_atomic(path, json.dumps(self.dump()))
