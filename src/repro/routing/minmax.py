"""MinMax traffic engineering (TeXCP / MATE style), paper §3.

"A pure MinMax approach optimizes traffic placement so as to minimize the
maximum link utilization.  This is insufficient, as it does not generate
unique solutions [...] One way to obtain a practical routing system is to
minimize the sum of path latencies as a tie-break between traffic
placements with equal maximum link utilization."

Two variants are provided, matching the paper's Figure 4(c) and 4(d):

* **full MinMax** (``k=None``): each aggregate gets its ``FULL_K``
  shortest paths plus the paths of a decomposed optimal MinMax flow
  (:func:`mcf_seed_paths`; utilization optimality is the reciprocal of the
  maximum concurrent-flow scale), so one LP solve reaches the true optimal
  maximum utilization;
* **MinMax K** (``k=10``): paths restricted to the k lowest-delay ones per
  aggregate, as TeXCP suggests.  On high-LLPD networks this variant can no
  longer always avoid congestion — the paper's key observation.

Every placement, whatever the path set, comes from the exact two-stage LP
of :func:`repro.routing.pathlp.solve_minmax_lp`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lp import InfeasibleError
from repro.net.graph import Network
from repro.net.paths import KspCache, Path
from repro.routing.base import (
    Placement,
    RoutingScheme,
    Splits,
    normalize_allocations,
)
from repro.routing.decompose import ResidualFlow
from repro.routing.pathlp import solve_minmax_lp
from repro.tm.matrix import Aggregate, TrafficMatrix

#: Full MinMax's k-shortest paths per aggregate, beside its MCF seeds: the
#: low-delay options stage 2's latency tie-break picks from.
FULL_K = 4
#: The stretch-bound variant's cap on paths per aggregate.
MAX_PATHS = 60


def optimal_max_utilization(network: Network, tm: TrafficMatrix) -> float:
    """The lowest achievable maximum link utilization for this matrix.

    For fractional multi-commodity flow, minimizing the maximum utilization
    is the reciprocal of the maximum concurrent-flow scale factor, which we
    already compute with a compact source-grouped link LP.
    """
    from repro.tm.scale import max_scale_factor

    lam = max_scale_factor(network, tm)
    if lam <= 0:
        raise InfeasibleError("traffic matrix cannot be routed at any scale")
    return 1.0 / lam


def mcf_seed_paths(
    network: Network, tm: TrafficMatrix
) -> "Tuple[float, Dict[Tuple[str, str], List[Path]]]":
    """Optimal MinMax utilization plus paths achieving it, per pair.

    The maximum-concurrent-flow LP's solution, rescaled, is an optimal
    minimum-max-utilization flow.  Decomposing each source commodity into
    simple paths (multi-sink flow decomposition) yields path sets that
    provably let the path-based MinMax LP reach the exact optimum — no
    iterative guessing about which k-shortest paths might be needed.
    """
    from repro.tm.scale import max_scale_flows

    lam, flows = max_scale_flows(network, tm)
    if lam <= 0:
        raise InfeasibleError("traffic matrix cannot be routed at any scale")
    demands_from: Dict[str, Dict[str, float]] = {}
    for agg in tm.aggregates():
        demands_from.setdefault(agg.src, {})[agg.dst] = agg.demand_bps

    seeds: Dict[Tuple[str, str], List[Path]] = {}
    for src, per_link in flows.items():
        remaining_flow = ResidualFlow(network, per_link)
        remaining_demand = dict(demands_from.get(src, {}))
        # Each strip exhausts a link or finishes a destination, so the
        # loop is bounded by |E| + |destinations|.
        for _ in range(len(per_link) + len(remaining_demand) + 1):
            pending = [
                (dst, demand)
                for dst, demand in remaining_demand.items()
                if demand > 1e-6
            ]
            if not pending:
                break
            dst = max(pending, key=lambda item: item[1])[0]
            found = remaining_flow.shortest_path(src, dst)
            if found is None:
                # Numerical dust: this destination's residual is noise.
                del remaining_demand[dst]
                continue
            path, positions = found
            strip = min(
                remaining_demand[dst], remaining_flow.bottleneck(positions)
            )
            remaining_flow.strip(positions, strip)
            remaining_demand[dst] -= strip
            if remaining_demand[dst] <= 1e-6:
                del remaining_demand[dst]
            seeds.setdefault((src, dst), [])
            if path not in seeds[(src, dst)]:
                seeds[(src, dst)].append(path)
    return 1.0 / lam, seeds


class MinMaxRouting(RoutingScheme):
    """Minimize max utilization, tie-breaking by total latency.

    ``k=None`` reproduces the paper's full MinMax; an integer ``k`` is the
    TeXCP-style restriction to the k shortest paths (the paper uses 10).
    """

    def __init__(
        self,
        k: Optional[int] = None,
        cache: Optional[KspCache] = None,
        stretch_bound: Optional[float] = None,
    ) -> None:
        super().__init__(cache=cache)
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k is not None and stretch_bound is not None:
            raise ValueError("k and stretch_bound are mutually exclusive")
        if stretch_bound is not None and stretch_bound < 1.0:
            raise ValueError(
                f"stretch bound must be >= 1, got {stretch_bound}"
            )
        self.k = k
        #: The paper's §8 suggestion: instead of a fixed k, give each
        #: aggregate every path within ``stretch_bound`` times its
        #: shortest delay.  Avoids both MinMaxK's missing capacity on
        #: diverse networks and full MinMax's needless detours.
        self.stretch_bound = stretch_bound
        if k is not None:
            self.name = f"MinMaxK{k}"
        elif stretch_bound is not None:
            self.name = f"MinMaxS{stretch_bound:g}"
        else:
            self.name = "MinMax"
        #: Maximum utilization achieved by the last placement.
        self.last_max_utilization: Optional[float] = None

    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        cache = self.cache_for(network)
        aggregates = tm.aggregates()
        if not aggregates:
            raise ValueError("traffic matrix has no aggregates to route")

        path_sets: Optional[Dict[Aggregate, List[Path]]]
        if self.k is not None:
            path_sets = {
                agg: list(cache.get(agg.src, agg.dst, self.k)) for agg in aggregates
            }
        elif self.stretch_bound is not None:
            path_sets = {
                agg: self._paths_within_stretch(cache, agg)
                for agg in aggregates
            }
        else:
            path_sets = None

        if path_sets is None:
            fractions, umax = self._solve_full(network, tm, cache, aggregates)
        else:
            fractions, umax = solve_minmax_lp(network, path_sets)
        self.last_max_utilization = umax
        # The k-restricted variant can genuinely fail to fit traffic; the
        # placement's real link loads say so.
        return Placement(network, normalize_allocations(fractions))

    def _paths_within_stretch(self, cache: KspCache, agg: Aggregate) -> List[Path]:
        """All k-shortest paths whose delay is within the stretch bound.

        Grown lazily: Yen yields paths in non-decreasing delay, so we stop
        at the first path over the bound (or at ``MAX_PATHS``).
        """
        from repro.net.paths import path_delay_s

        if self.stretch_bound is None:
            raise RuntimeError(
                "_paths_within_stretch requires a stretch_bound; "
                "the k/stretch dispatch in place() is out of sync"
            )
        network = cache.network
        shortest = cache.shortest(agg.src, agg.dst)
        budget = path_delay_s(network, shortest) * self.stretch_bound
        selected: List[Path] = []
        k = 1
        while k <= MAX_PATHS:
            paths = cache.get(agg.src, agg.dst, k)
            if len(paths) < k:
                break  # pair exhausted
            candidate = paths[k - 1]
            if path_delay_s(network, candidate) > budget + 1e-12:
                break
            selected.append(candidate)
            k += 1
        return selected or [shortest]

    def _solve_full(
        self,
        network: Network,
        tm: TrafficMatrix,
        cache: KspCache,
        aggregates: List[Aggregate],
    ) -> Tuple[Splits, float]:
        """Reach the exact MinMax utilization via MCF-decomposed paths.

        Path sets are the ``FULL_K`` shortest paths (so the latency
        tie-break has low-delay options) plus the paths of a decomposed
        optimal MinMax flow (so the stage-1 optimum is achievable by
        construction): one two-stage solve.
        """
        _, seeds = mcf_seed_paths(network, tm)
        path_sets: Dict[Aggregate, List[Path]] = {}
        for agg in aggregates:
            path_sets[agg] = list(cache.get(agg.src, agg.dst, FULL_K))
            for path in seeds.get(agg.pair, []):
                if path not in path_sets[agg]:
                    path_sets[agg].append(path)
        return solve_minmax_lp(network, path_sets)
