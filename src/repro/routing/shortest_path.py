"""Delay-proportional shortest-path routing (OSPF/IS-IS style).

The paper's §3 baseline: "how shortest-path routing performs when link costs
are proportional to delay".  Every aggregate rides its single lowest-delay
path, oblivious to load — which is precisely why high-LLPD networks
concentrate traffic (its Figure 3).
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.graph import Network
from repro.net.paths import KspCache
from repro.routing.base import PathAllocation, Placement, RoutingScheme
from repro.tm.matrix import Aggregate, TrafficMatrix


class ShortestPathRouting(RoutingScheme):
    """Place each aggregate entirely on its lowest-delay path."""

    name = "SP"

    def __init__(self, cache: KspCache | None = None) -> None:
        super().__init__(cache=cache)

    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        cache = self.cache_for(network)
        allocations: Dict[Aggregate, List[PathAllocation]] = {}
        for agg in tm.aggregates():
            path = cache.shortest(agg.src, agg.dst)
            allocations[agg] = [PathAllocation(path, 1.0)]
        return Placement(network, allocations)
