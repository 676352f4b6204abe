"""The routing chassis: placements, their metrics, and what every scheme
shares.

A :class:`Placement` is the output of every scheme: for each aggregate, a
list of paths with the fraction of the aggregate's traffic carried on each.
All of the paper's evaluation metrics — fraction of congested pairs, total
latency stretch, maximum path stretch, link utilization CDFs — are methods
here, computed against the *real* network capacities (schemes that reserve
headroom route on scaled-down capacities but are judged on the truth).
Whether a placement fits is one of them: no scheme reports it.

:class:`RoutingScheme` holds the headroom check and routed copy
(:meth:`~RoutingScheme.routed`) and the KSP-cache choice
(:meth:`~RoutingScheme.cache_for`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import (
    Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence,
    Tuple, TypeVar,
)

from repro.net.graph import Network
from repro.net.index import graph_index
from repro.net.paths import KspCache, Path, path_delay_s, path_links
from repro.tm.matrix import Aggregate, TrafficMatrix

# A link is "saturated" when loaded beyond capacity by more than this
# relative tolerance.  LP solutions routinely land exactly on capacity;
# that is full, not congested.
SATURATION_TOLERANCE = 1e-4

#: Loads within this relative tolerance of capacity still fit: the judge
#: of a placement's fit and of an LP solution's (MinMax lands up to about
#: 1e-6 over the capacity it was asked to respect).
OVERLOAD_TOLERANCE = 1e-5

#: LP splits at or below this fraction are numerically zero.
MIN_FRACTION = 1e-6

LinkKey = Tuple[str, str]
#: An LP's raw answer: each aggregate's (path, fraction) splits.
Splits = Mapping[Aggregate, Sequence[Tuple[Path, float]]]
Label = TypeVar("Label", bound=Hashable)


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
    ) -> None:
        self.network = network
        self._allocations: Dict[Aggregate, List[PathAllocation]] = {
            agg: list(allocs) for agg, allocs in allocations.items()
        }
        self._validate()
        self._link_loads: Optional[Dict[Tuple[str, str], float]] = None
        self._utilizations: Optional[Dict[Tuple[str, str], float]] = None
        self._shortest: Optional[Dict[Aggregate, float]] = None
        self._path_delays: Dict[Path, float] = {}
        self._means: Optional[Dict[Aggregate, float]] = None

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
        """True when no link of the real network is loaded beyond its
        capacity (by more than :data:`OVERLOAD_TOLERANCE`)."""
        return self.max_utilization() <= 1.0 + OVERLOAD_TOLERANCE

    # ------------------------------------------------------------------
    # Link-level metrics
    # ------------------------------------------------------------------
    def link_loads_bps(self) -> Dict[Tuple[str, str], float]:
        """Traffic on every directed link (zero-load links included)."""
        if self._link_loads is None:
            loads = {link.key: 0.0 for link in self.network.links()}
            loads.update(link_loads(
                (alloc.path, agg.demand_bps * alloc.fraction)
                for agg, allocs in self._allocations.items()
                for alloc in allocs
            ))
            self._link_loads = loads
        return dict(self._link_loads)

    def link_utilizations(self) -> Dict[Tuple[str, str], float]:
        return dict(self._link_utilizations())

    def _link_utilizations(self) -> Dict[Tuple[str, str], float]:
        # Computed once: saturation, max utilization and fit each read
        # every link.
        if self._utilizations is None:
            self._utilizations = {
                key: load / self.network.link(*key).capacity_bps
                for key, load in self.link_loads_bps().items()
            }
        return self._utilizations

    def max_utilization(self) -> float:
        utilizations = self._link_utilizations()
        return max(utilizations.values()) if utilizations else 0.0

    def saturated_links(self) -> List[Tuple[str, str]]:
        """Directed links loaded strictly beyond capacity (congested)."""
        return [
            key
            for key, utilization in self._link_utilizations().items()
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

    def _path_delay(self, path: Path) -> float:
        delay = self._path_delays.get(path)
        if delay is None:
            delay = self._path_delays[path] = path_delay_s(self.network, path)
        return delay

    def _mean_delays(self) -> Dict[Aggregate, float]:
        """Each aggregate's split-weighted mean path delay (computed once)."""
        if self._means is None:
            self._means = {
                agg: sum(a.fraction * self._path_delay(a.path) for a in allocs)
                for agg, allocs in self._allocations.items()
            }
        return self._means

    def stretch_by(self, label: Callable[[Aggregate], Label]) -> Dict[Label, float]:
        """Latency stretch (as :meth:`total_latency_stretch`) of each
        group of aggregates sharing ``label(agg)``."""
        shortest = self._shortest_delays()
        actual: Dict[Label, float] = {}
        best: Dict[Label, float] = {}
        for agg, mean_delay in self._mean_delays().items():
            key = label(agg)
            actual[key] = actual.get(key, 0.0) + agg.n_flows * mean_delay
            best[key] = best.get(key, 0.0) + agg.n_flows * shortest[agg]
        return {
            key: actual[key] / best[key] if best[key] > 0 else 1.0
            for key in actual
        }

    def total_latency_stretch(self) -> float:
        """Flow-weighted delay relative to shortest paths.

        The paper's latency stretch: ``sum_f d_f / sum_f d_f,sp`` where the
        sums run over flows (we weight each aggregate by its flow count and
        split fractions).
        """
        return self.stretch_by(lambda agg: None).get(None, 1.0)

    def total_weighted_delay_s(self) -> float:
        """Flow-weighted total propagation delay (the stretch numerator).

        Unlike stretch this is not normalized by shortest-path delays, so
        it is comparable across topology variants whose shortest paths
        differ — the right quantity for before/after growth studies.
        """
        total = 0.0
        for agg, mean_delay in self._mean_delays().items():
            total += agg.n_flows * mean_delay
        return total

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
                worst = max(worst, self._path_delay(alloc.path) / shortest[agg])
        return worst

    def __repr__(self) -> str:
        return (
            f"Placement(aggregates={len(self._allocations)}, "
            f"max_util={self.max_utilization():.3f})"
        )


class RoutingScheme(abc.ABC):
    """Interface every routing scheme implements.

    ``headroom`` in ``[0, 1)`` is the share of link capacity a scheme keeps
    in reserve; ``cache`` is a KSP cache shared by the schemes placing one
    network (a workload item's).
    """

    #: Human-readable name used in benchmark output.
    name: str = "scheme"

    def __init__(self, headroom: float = 0.0, cache: Optional[KspCache] = None) -> None:
        if not 0.0 <= headroom < 1.0:
            raise ValueError(f"headroom must be in [0, 1), got {headroom}")
        self.headroom = headroom
        self._cache = cache

    def cache_for(self, network: Network) -> KspCache:
        """The shared cache if it was built for ``network``, else a fresh
        one (it serves the :meth:`routed` copy too: paths follow delays)."""
        if self._cache is not None and self._cache.network is network:
            return self._cache
        return KspCache(network)

    def routed(self, network: Network) -> Network:
        """``network`` with capacities scaled by ``1 - headroom``."""
        if self.headroom > 0:
            return network.with_capacity_factor(1.0 - self.headroom)
        return network

    @abc.abstractmethod
    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        """Compute a traffic placement for the given matrix."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def link_loads(rates: Iterable[Tuple[Path, float]]) -> Dict[LinkKey, float]:
    """Per-link sums of ``(path, rate)`` pairs, added in the given order;
    only touched links are keys, in first-touch order."""
    loads: Dict[LinkKey, float] = {}
    for path, rate in rates:
        for key in path_links(path):
            loads[key] = loads.get(key, 0.0) + rate
    return loads


def normalize_allocations(raw: Splits) -> Dict[Aggregate, List[PathAllocation]]:
    """Drop splits at or below ``MIN_FRACTION`` and renormalize fractions
    to sum to 1."""
    cleaned: Dict[Aggregate, List[PathAllocation]] = {}
    for agg, splits in raw.items():
        kept = [(path, fraction) for path, fraction in splits if fraction > MIN_FRACTION]
        if not kept:
            # Keep the largest split to avoid dropping the aggregate.
            path, fraction = max(splits, key=lambda item: item[1])
            kept = [(path, max(fraction, 1.0))]
        total = sum(fraction for _, fraction in kept)
        cleaned[agg] = [
            PathAllocation(path, fraction / total) for path, fraction in kept
        ]
    return cleaned
