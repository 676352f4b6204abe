"""ECMP shortest-path routing.

The deployed variant of the paper's shortest-path baseline: OSPF/IS-IS
with equal-cost multipath splits traffic evenly across all minimum-delay
paths.  On topologies with parallel equal-delay routes this spreads load
that plain SP would concentrate — but like SP it remains load-oblivious,
so it exhibits the same Figure 3 pathology wherever the tied paths share a
bottleneck.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.graph import Network
from repro.net.paths import KspCache, Path, path_delay_s
from repro.routing.base import PathAllocation, Placement, RoutingScheme
from repro.tm.matrix import Aggregate, TrafficMatrix

#: Paths within this relative delay of the minimum count as "equal cost".
ECMP_DELAY_TOLERANCE = 1e-9


def equal_cost_paths(
    cache: KspCache, src: str, dst: str, max_paths: int = 16
) -> List[Path]:
    """All minimum-delay paths between a pair (up to ``max_paths``)."""
    paths = cache.get(src, dst, max_paths)
    if not paths:
        from repro.net.paths import NoPathError

        raise NoPathError(f"no path {src} -> {dst}")
    network = cache.network
    best = path_delay_s(network, paths[0])
    threshold = best * (1.0 + ECMP_DELAY_TOLERANCE) + 1e-15
    return [p for p in paths if path_delay_s(network, p) <= threshold]


class EcmpRouting(RoutingScheme):
    """Split each aggregate evenly over its equal-cost shortest paths."""

    name = "ECMP"

    def __init__(
        self, cache: Optional[KspCache] = None, max_paths: int = 16
    ) -> None:
        super().__init__(cache=cache)
        self.max_paths = max_paths

    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        cache = self.cache_for(network)
        allocations: Dict[Aggregate, List[PathAllocation]] = {}
        for agg in tm.aggregates():
            paths = equal_cost_paths(cache, agg.src, agg.dst, self.max_paths)
            fraction = 1.0 / len(paths)
            allocations[agg] = [
                PathAllocation(path, fraction) for path in paths
            ]
        return Placement(network, allocations)
