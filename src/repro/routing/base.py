"""Common types for routing schemes: placements and their metrics.

A :class:`Placement` is the output of every scheme: for each aggregate, a
list of paths with the fraction of the aggregate's traffic carried on each.
All of the paper's evaluation metrics — fraction of congested pairs, total
latency stretch, maximum path stretch, link utilization CDFs — are methods
here, computed against the *real* network capacities (schemes that reserve
headroom route on scaled-down capacities but are judged on the truth).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.graph import Network
from repro.net.index import graph_index
from repro.net.paths import Path, path_delay_s, path_links
from repro.tm.matrix import Aggregate, TrafficMatrix

# A link is "saturated" when loaded beyond capacity by more than this
# relative tolerance.  LP solutions routinely land exactly on capacity;
# that is full, not congested.
SATURATION_TOLERANCE = 1e-4


@dataclass
class PathAllocation:
    """One path used by an aggregate and the traffic fraction on it."""

    path: Path
    fraction: float


class Placement:
    """A complete traffic placement: every aggregate split across paths."""

    def __init__(
        self,
        network: Network,
        allocations: Mapping[Aggregate, Sequence[PathAllocation]],
        unplaced_bps: Optional[Mapping[Aggregate, float]] = None,
    ) -> None:
        self.network = network
        self._allocations: Dict[Aggregate, List[PathAllocation]] = {
            agg: list(allocs) for agg, allocs in allocations.items()
        }
        # Demand a scheme failed to fit anywhere (B4 and MinMaxK can fail);
        # by convention this residual rides the aggregate's shortest path
        # and is already reflected in the allocations, but we keep the
        # amount so "could not fit the traffic" cases are identifiable.
        self.unplaced_bps: Dict[Aggregate, float] = dict(unplaced_bps or {})
        self._validate()
        self._link_loads: Optional[Dict[Tuple[str, str], float]] = None
        self._shortest: Optional[Dict[Aggregate, float]] = None

    def _validate(self) -> None:
        for agg, allocs in self._allocations.items():
            total = sum(alloc.fraction for alloc in allocs)
            if allocs and not 0.99 <= total <= 1.01:
                raise ValueError(
                    f"aggregate {agg.src}->{agg.dst}: fractions sum to {total:.4f}"
                )
            for alloc in allocs:
                if alloc.path[0] != agg.src or alloc.path[-1] != agg.dst:
                    raise ValueError(
                        f"aggregate {agg.src}->{agg.dst} assigned path "
                        f"{'-'.join(alloc.path)}"
                    )

    # ------------------------------------------------------------------
    # Raw structure
    # ------------------------------------------------------------------
    @property
    def aggregates(self) -> List[Aggregate]:
        return list(self._allocations)

    def paths_for(self, aggregate: Aggregate) -> List[PathAllocation]:
        return list(self._allocations[aggregate])

    @property
    def fits_all_traffic(self) -> bool:
        """True when no demand had to be force-placed beyond capacity."""
        return not any(v > 1e-3 for v in self.unplaced_bps.values())

    # ------------------------------------------------------------------
    # Link-level metrics
    # ------------------------------------------------------------------
    def link_loads_bps(self) -> Dict[Tuple[str, str], float]:
        """Traffic on every directed link (zero-load links included)."""
        if self._link_loads is None:
            loads = {link.key: 0.0 for link in self.network.links()}
            for agg, allocs in self._allocations.items():
                for alloc in allocs:
                    rate = agg.demand_bps * alloc.fraction
                    for key in path_links(alloc.path):
                        loads[key] += rate
            self._link_loads = loads
        return dict(self._link_loads)

    def link_utilizations(self) -> Dict[Tuple[str, str], float]:
        return {
            key: load / self.network.link(*key).capacity_bps
            for key, load in self.link_loads_bps().items()
        }

    def max_utilization(self) -> float:
        utilizations = self.link_utilizations()
        return max(utilizations.values()) if utilizations else 0.0

    def saturated_links(self) -> List[Tuple[str, str]]:
        """Directed links loaded strictly beyond capacity (congested)."""
        return [
            key
            for key, utilization in self.link_utilizations().items()
            if utilization > 1.0 + SATURATION_TOLERANCE
        ]

    # ------------------------------------------------------------------
    # Pair-level metrics (the paper's evaluation quantities)
    # ------------------------------------------------------------------
    def congested_pair_fraction(self) -> float:
        """Fraction of aggregates whose traffic crosses a saturated link.

        This is the paper's "fraction of pairs congested" (Figures 3, 4 and
        19): a source-destination pair counts as congested if any of its
        traffic is routed across a link loaded beyond capacity.
        """
        if not self._allocations:
            return 0.0
        saturated = set(self.saturated_links())
        if not saturated:
            return 0.0
        congested = 0
        for agg, allocs in self._allocations.items():
            crosses = any(
                key in saturated
                for alloc in allocs
                if alloc.fraction > 1e-9
                for key in path_links(alloc.path)
            )
            if crosses:
                congested += 1
        return congested / len(self._allocations)

    def _shortest_delays(self) -> Dict[Aggregate, float]:
        """Shortest-path delay per aggregate, from the network index's
        per-source sweeps: one per source, shared by every placement."""
        if self._shortest is None:
            index = graph_index(self.network)
            delays: Dict[Aggregate, float] = {}
            for agg in self._allocations:
                delay = index.delays_from(index.node_id(agg.src))[
                    index.node_id(agg.dst)
                ]
                if delay == math.inf:
                    raise KeyError(f"no path {agg.src} -> {agg.dst}")
                delays[agg] = delay
            self._shortest = delays
        return self._shortest

    def total_latency_stretch(self) -> float:
        """Flow-weighted delay relative to shortest paths.

        The paper's latency stretch: ``sum_f d_f / sum_f d_f,sp`` where the
        sums run over flows (we weight each aggregate by its flow count and
        split fractions).
        """
        shortest = self._shortest_delays()
        actual_total = 0.0
        shortest_total = 0.0
        for agg, allocs in self._allocations.items():
            mean_delay = sum(
                alloc.fraction * path_delay_s(self.network, alloc.path)
                for alloc in allocs
            )
            actual_total += agg.n_flows * mean_delay
            shortest_total += agg.n_flows * shortest[agg]
        if shortest_total == 0.0:
            return 1.0
        return actual_total / shortest_total

    def total_weighted_delay_s(self) -> float:
        """Flow-weighted total propagation delay (the stretch numerator).

        Unlike stretch this is not normalized by shortest-path delays, so
        it is comparable across topology variants whose shortest paths
        differ — the right quantity for before/after growth studies.
        """
        total = 0.0
        for agg, allocs in self._allocations.items():
            mean_delay = sum(
                alloc.fraction * path_delay_s(self.network, alloc.path)
                for alloc in allocs
            )
            total += agg.n_flows * mean_delay
        return total

    def per_aggregate_stretch(self) -> Dict[Aggregate, float]:
        """Mean delay stretch of each aggregate (1.0 = on shortest path)."""
        shortest = self._shortest_delays()
        stretches = {}
        for agg, allocs in self._allocations.items():
            mean_delay = sum(
                alloc.fraction * path_delay_s(self.network, alloc.path)
                for alloc in allocs
            )
            stretches[agg] = mean_delay / shortest[agg] if shortest[agg] > 0 else 1.0
        return stretches

    def max_path_stretch(self) -> float:
        """Worst stretch of any used path over its pair's shortest delay.

        The paper's Figure 16 metric ("maximum path stretch"): the largest
        ``d_p / d_sp`` over all (aggregate, used path) combinations.
        """
        shortest = self._shortest_delays()
        worst = 1.0
        for agg, allocs in self._allocations.items():
            if shortest[agg] <= 0:
                continue
            for alloc in allocs:
                if alloc.fraction <= 1e-6:
                    continue
                stretch = path_delay_s(self.network, alloc.path) / shortest[agg]
                worst = max(worst, stretch)
        return worst

    def __repr__(self) -> str:
        return (
            f"Placement(aggregates={len(self._allocations)}, "
            f"max_util={self.max_utilization():.3f})"
        )


class RoutingScheme(abc.ABC):
    """Interface every routing scheme implements."""

    #: Human-readable name used in benchmark output.
    name: str = "scheme"

    @abc.abstractmethod
    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        """Compute a traffic placement for the given matrix."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def normalize_allocations(
    raw: Mapping[Aggregate, Sequence[Tuple[Path, float]]],
    min_fraction: float = 1e-6,
) -> Dict[Aggregate, List[PathAllocation]]:
    """Drop numerically-zero splits and renormalize fractions to sum to 1."""
    cleaned: Dict[Aggregate, List[PathAllocation]] = {}
    for agg, splits in raw.items():
        kept = [(path, fraction) for path, fraction in splits if fraction > min_fraction]
        if not kept:
            # Keep the largest split to avoid dropping the aggregate.
            path, fraction = max(splits, key=lambda item: item[1])
            kept = [(path, max(fraction, 1.0))]
        total = sum(fraction for _, fraction in kept)
        cleaned[agg] = [
            PathAllocation(path, fraction / total) for path, fraction in kept
        ]
    return cleaned
