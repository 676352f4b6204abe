"""MPLS-TE auto-bandwidth style greedy placement.

The paper (§3): "Automatic bandwidth allocation for MPLS-TE considers one
aggregate at a time, and places each aggregate on its shortest
non-congested path. [...] In the following, we focus on B4 but the same
observations also hold for MPLS-TE."

Unlike B4's synchronized water-filling, MPLS-TE is *sequential*: each
aggregate (in descending demand order, mirroring auto-bandwidth
re-signalling of the biggest LSPs first) grabs its entire demand on the
lowest-delay path whose links can still hold it, splitting across several
LSPs only when no single path fits.  This makes its outcome
order-dependent — one more greedy pathology on top of B4's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.graph import Network
from repro.net.paths import KspCache, path_links
from repro.routing.b4 import MAX_PATHS_PER_AGGREGATE, RATE_EPSILON_BPS
from repro.routing.base import PathAllocation, Placement, RoutingScheme
from repro.tm.matrix import Aggregate, TrafficMatrix


class MplsTeRouting(RoutingScheme):
    """Sequential greedy placement on the shortest non-congested path.

    ``headroom`` scales every link's residual by ``1 - headroom``.  The
    cache is :meth:`~RoutingScheme.cache_for`'s; leftover demand rides the
    aggregate's shortest path.
    """

    name = "MPLS-TE"

    def __init__(
        self,
        headroom: float = 0.0,
        cache: Optional[KspCache] = None,
    ) -> None:
        super().__init__(headroom, cache)
        if headroom > 0:
            self.name = f"MPLS-TE(h={headroom:.0%})"

    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        cache = self.cache_for(network)
        residual = {
            link.key: link.capacity_bps * (1.0 - self.headroom)
            for link in network.links()
        }
        aggregates = sorted(tm.aggregates(), key=lambda agg: -agg.demand_bps)

        allocations: Dict[Aggregate, List[PathAllocation]] = {}
        for agg in aggregates:
            placed: List[Tuple[tuple, float]] = []
            remaining = agg.demand_bps
            # First preference: the whole aggregate on one path.
            for rank in range(MAX_PATHS_PER_AGGREGATE):
                paths = cache.get(agg.src, agg.dst, rank + 1)
                if len(paths) <= rank:
                    break
                path = paths[rank]
                if all(
                    residual[key] >= remaining - RATE_EPSILON_BPS
                    for key in path_links(path)
                ):
                    placed.append((path, remaining))
                    for key in path_links(path):
                        residual[key] -= remaining
                    remaining = 0.0
                    break
            if remaining > RATE_EPSILON_BPS:
                # Fall back to splitting over successive shortest paths
                # with whatever residual each can take.
                for rank in range(MAX_PATHS_PER_AGGREGATE):
                    if remaining <= RATE_EPSILON_BPS:
                        break
                    paths = cache.get(agg.src, agg.dst, rank + 1)
                    if len(paths) <= rank:
                        break
                    path = paths[rank]
                    room = min(residual[key] for key in path_links(path))
                    take = min(room, remaining)
                    if take <= RATE_EPSILON_BPS:
                        continue
                    placed.append((path, take))
                    for key in path_links(path):
                        residual[key] -= take
                    remaining -= take
            if remaining > RATE_EPSILON_BPS:
                # Nothing fits: force the leftover onto the shortest path.
                shortest = cache.shortest(agg.src, agg.dst)
                placed.append((shortest, remaining))
            total = sum(amount for _, amount in placed)
            merged: Dict[tuple, float] = {}
            for path, amount in placed:
                merged[path] = merged.get(path, 0.0) + amount
            allocations[agg] = [
                PathAllocation(path, amount / total)
                for path, amount in merged.items()
            ]
        return Placement(network, allocations)
