"""Differentiated traffic classes (paper §8, "Extension to differentiated
traffic classes").

"If an ISP does know which flows should be prioritized, it is
straightforward to extend our optimization framework to split aggregates
according to priority, and to modify the LP constraints and weights so as
to prioritize giving low latency paths to flows that will benefit most."

We implement exactly that: each aggregate belongs to a :class:`TrafficClass`
whose ``weight`` multiplies its flow count in the Figure 12 delay
objective.  A latency-sensitive class with weight 10 makes detouring one of
its flows cost as much as detouring ten best-effort flows, so under
contention the optimizer detours best-effort traffic first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.net.paths import KspCache
from repro.routing.base import Placement
from repro.routing.optimal import LatencyOptimalRouting
from repro.tm.matrix import TrafficMatrix

Pair = Tuple[str, str]


@dataclass(frozen=True)
class TrafficClass:
    """A named priority class with an objective weight multiplier."""

    name: str
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"class {self.name!r}: weight must be positive")


BEST_EFFORT = TrafficClass("best-effort", 1.0)
LATENCY_SENSITIVE = TrafficClass("latency-sensitive", 10.0)


class PriorityLatencyOptimalRouting(LatencyOptimalRouting):
    """Latency-optimal routing with per-class delay weights.

    ``classes`` maps (src, dst) pairs to a :class:`TrafficClass`; unmapped
    aggregates default to ``default_class``.  The placement returned is in
    terms of the original aggregates, so all standard metrics apply.
    """

    name = "PriorityLatencyOptimal"

    def __init__(
        self,
        classes: Mapping[Pair, TrafficClass],
        default_class: TrafficClass = BEST_EFFORT,
        headroom: float = 0.0,
        cache: Optional[KspCache] = None,
    ) -> None:
        super().__init__(headroom=headroom, cache=cache)
        # The class-level name, not the headroom-derived LDR one.
        self.name = type(self).name
        self.classes = dict(classes)
        self.default_class = default_class

    def class_of(self, pair: Pair) -> TrafficClass:
        return self.classes.get(pair, self.default_class)

    def objective_matrix(self, tm: TrafficMatrix) -> TrafficMatrix:
        """``tm`` with each pair's flow count times its class weight: the
        weight enters the Figure 12 objective through the flow count."""
        aggregates = tm.aggregates()
        return TrafficMatrix(
            {agg.pair: agg.demand_bps for agg in aggregates},
            flow_counts={
                agg.pair: max(1, round(agg.n_flows * self.class_of(agg.pair).weight))
                for agg in aggregates
            },
        )

    def per_class_stretch(self, placement: Placement) -> Dict[str, float]:
        """Flow-weighted latency stretch per traffic class."""
        return placement.stretch_by(lambda agg: self.class_of(agg.pair).name)
