"""Latency-optimal routing via iterative path-set growth.

The paper's Figure 13: start each aggregate with only its shortest path,
solve the Figure 12 LP, find maximally overloaded links, grow the path sets
of the aggregates crossing those links with further k-shortest paths, and
repeat until nothing is overloaded.  "Even though this approach involves
multiple runs of the LP optimization, it actually runs very quickly because
the number of variables (paths) in each run is small."

With ``headroom > 0`` the optimization sees capacities scaled by
``1 - headroom`` (the paper's headroom dial, §4) while the returned
placement is judged against the true capacities, as every placement is.

Each iteration's LP goes through :func:`repro.routing.pathlp.solve_latency_lp`,
which builds a fresh model per solve; one placement's :data:`PathMemo`
carries every path's delay and link ids across its rounds, so the
repeated solves the paper waves off as "very quick" stay that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.graph import Network
from repro.net.paths import KspCache, Path, path_links
from repro.routing.base import Placement, RoutingScheme, normalize_allocations
from repro.routing.pathlp import PathLpResult, PathMemo, solve_latency_lp
from repro.tm.matrix import Aggregate, TrafficMatrix

# The Figure 13 loop's path growth: each aggregate starts from its
# INITIAL_K shortest paths and an aggregate crossing a maximally
# overloaded link gains GROW_STEP more per round, up to MAX_PATHS; the
# loop gives up after MAX_ITERATIONS solves.
INITIAL_K = 1
GROW_STEP = 2
MAX_PATHS = 50
MAX_ITERATIONS = 60


@dataclass
class IterationStats:
    """Diagnostics of one iterative solve (useful for the Fig 15 bench)."""

    lp_solves: int
    total_paths: int
    fits: bool
    max_overload: float


def grow_path_sets(
    cache: KspCache,
    path_sets: Dict[Aggregate, List[Path]],
    target_counts: Dict[Aggregate, int],
    crossing: Sequence[Aggregate],
) -> bool:
    """Extend the path lists of the given aggregates; True if any grew."""
    grew = False
    for agg in crossing:
        current = target_counts[agg]
        if current >= MAX_PATHS:
            continue
        target_counts[agg] = min(MAX_PATHS, current + GROW_STEP)
        paths = cache.get(agg.src, agg.dst, target_counts[agg])
        if len(paths) > len(path_sets[agg]):
            path_sets[agg] = list(paths)
            grew = True
        else:
            # Pair has no more simple paths; remember that.
            target_counts[agg] = MAX_PATHS
    return grew


def add_detour_paths(
    network: Network,
    path_sets: Dict[Aggregate, List[Path]],
    crossing: Sequence[Aggregate],
    overloaded: Sequence[Tuple[str, str]],
) -> bool:
    """Add, per crossing aggregate, its shortest path avoiding the
    overloaded links.

    Pure k-shortest-path growth can take combinatorially long to find a
    path that avoids a specific hotspot (on multi-continent topologies,
    thousands of same-ocean-crossing variants precede the first path over
    a different crossing).  One targeted Dijkstra per aggregate supplies
    exactly the "route around this link" diversity the LP needs.
    Returns True if any path set grew.
    """
    from repro.net.paths import NoPathError, path_links, shortest_path

    all_excluded = set(overloaded)
    grew = False
    for agg in crossing:
        known = set(path_sets[agg])
        # One detour per overloaded link this aggregate currently crosses:
        # when several links are hot at once (e.g. every transatlantic
        # crossing), a single all-avoiding detour often does not exist,
        # but per-link alternatives do — and they are what the LP needs
        # to shift load between hotspots.
        crossed = [
            key
            for path in path_sets[agg]
            for key in path_links(path)
            if key in all_excluded
        ]
        candidates = [frozenset([key]) for key in dict.fromkeys(crossed)]
        if len(all_excluded) > 1:
            candidates.append(frozenset(all_excluded))
        for excluded in candidates:
            try:
                detour = shortest_path(
                    network, agg.src, agg.dst, excluded_links=set(excluded)
                )
            except NoPathError:
                continue
            if detour not in known:
                path_sets[agg].append(detour)
                known.add(detour)
                grew = True
    return grew


def aggregates_crossing(
    result: PathLpResult,
    path_sets: Mapping[Aggregate, Sequence[Path]],
    links: Sequence[Tuple[str, str]],
) -> List[Aggregate]:
    """Aggregates whose current placement routes traffic over the links."""
    link_set = set(links)
    crossing = []
    for agg, splits in result.fractions.items():
        for path, fraction in splits:
            if fraction <= 1e-9:
                continue
            if any(key in link_set for key in path_links(path)):
                crossing.append(agg)
                break
    return crossing


def solve_iterative_latency(
    network: Network,
    tm: TrafficMatrix,
    cache: Optional[KspCache] = None,
    warm_counts: Optional[Dict[Tuple[str, str], int]] = None,
    use_detours: bool = True,
) -> Tuple[PathLpResult, IterationStats]:
    """Run the Figure 13 loop to (near) latency-optimality.

    Returns the final LP result plus iteration statistics.  If the traffic
    is genuinely unroutable the final result still carries the
    overload-spreading placement the Figure 12 objective degrades to.

    ``warm_counts`` lets callers that solve repeatedly with slightly
    different demands (the LDR multiplexing loop) start each pair at the
    path count the previous solve ended with, instead of re-growing from
    ``INITIAL_K``.  It is updated in place.
    """
    cache = cache if cache is not None else KspCache(network)
    aggregates = tm.aggregates()
    if not aggregates:
        raise ValueError("traffic matrix has no aggregates to route")
    path_sets: Dict[Aggregate, List[Path]] = {}
    target_counts: Dict[Aggregate, int] = {}
    for agg in aggregates:
        k = INITIAL_K
        if warm_counts is not None:
            k = max(k, warm_counts.get(agg.pair, INITIAL_K))
        paths = cache.get(agg.src, agg.dst, k)
        if not paths:
            raise ValueError(f"no path {agg.src} -> {agg.dst}")
        path_sets[agg] = list(paths)
        target_counts[agg] = k

    path_memo: PathMemo = {}
    result = solve_latency_lp(network, path_sets, path_memo=path_memo)
    solves = 1
    while not result.fits:
        overloaded = result.overloaded_links(only_maximal=True)
        crossing = aggregates_crossing(result, path_sets, overloaded)
        grew = grow_path_sets(cache, path_sets, target_counts, crossing)
        # Targeted detours around the hotspot complement blind KSP growth
        # (see add_detour_paths for why both are needed).  The flag exists
        # so the ablation bench can quantify their contribution.
        if use_detours:
            grew |= add_detour_paths(network, path_sets, crossing, overloaded)
        if not grew:
            # Nobody can grow further along the bottleneck: widen the
            # growth to every overloaded link before giving up.
            overloaded = result.overloaded_links(only_maximal=False)
            crossing = aggregates_crossing(result, path_sets, overloaded)
            grew = grow_path_sets(cache, path_sets, target_counts, crossing)
            if use_detours:
                grew |= add_detour_paths(network, path_sets, crossing, overloaded)
        if not grew or solves == MAX_ITERATIONS:
            break
        result = solve_latency_lp(network, path_sets, path_memo=path_memo)
        solves += 1
    if warm_counts is not None:
        for agg, count in target_counts.items():
            warm_counts[agg.pair] = count
    stats = IterationStats(
        lp_solves=solves,
        total_paths=sum(len(paths) for paths in path_sets.values()),
        fits=result.fits,
        max_overload=result.max_overload,
    )
    return result, stats


class LatencyOptimalRouting(RoutingScheme):
    """The paper's latency-optimal scheme (and the core of LDR).

    ``headroom`` reserves a fraction of every link's capacity: the optimizer
    sees capacities scaled by ``1 - headroom``.  At ``headroom = 0`` this is
    the "living on the edge" latency-optimal placement of Figure 4(a); as
    headroom approaches the MinMax residual the placement converges to
    MinMax (§4).  The delay objective weights each pair by its flow
    count.
    """

    def __init__(
        self,
        headroom: float = 0.0,
        cache: Optional[KspCache] = None,
    ) -> None:
        super().__init__(headroom, cache)
        self.name = "LatencyOptimal" if headroom == 0 else f"LDR(h={headroom:.0%})"

    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        result, _ = solve_iterative_latency(
            self.routed(network), tm, cache=self.cache_for(network)
        )
        return Placement(network, normalize_allocations(result.fractions))
