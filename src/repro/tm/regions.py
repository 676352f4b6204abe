"""Per-region demand aggregation for ingest-scale graphs.

The path-LP column count grows with (pairs x paths): a 10k-node graph with
a dense traffic matrix would hand the LP 10^8 columns.  This module bounds
it by clustering nodes *geographically* (the same PoP coordinates
:mod:`repro.net.geo` derives link delays from), electing one gateway per
region, and re-homing every demand onto its endpoints' gateways:

* **exact at zoo scale** — :func:`maybe_aggregate` returns the matrix
  untouched while its pair count fits the budget, so nothing changes for
  the paper-scale experiments;
* **explicitly approximate at ingest scale** — once aggregation kicks in,
  the result is wrapped in a :class:`RegionalDemands` whose ``label``
  (e.g. ``"region~16"``) marks the approximation.  Intra-region demand
  (traffic both of whose endpoints land in one region) is dropped from
  the routed matrix and accounted in ``dropped_intra_bps``.

Clustering is deterministic farthest-point k-center on great-circle
distance (first center = node nearest the fleet centroid, ties by name),
so the same network always yields the same regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.net.geo import great_circle_km_many
from repro.net.graph import Network
from repro.tm.matrix import TrafficMatrix

FloatArray = npt.NDArray[np.float64]

#: Default pair budget: above this many demand pairs, aggregation engages.
#: 4096 pairs x k=10 paths keeps the path LP around 40k columns, the scale
#: PR 9's compiled-LP benchmarks showed comfortable.
DEFAULT_MAX_PAIRS = 4096


@dataclass(frozen=True)
class RegionalDemands:
    """An explicitly approximate, region-aggregated traffic matrix.

    ``matrix`` is the gateway-to-gateway matrix to route; ``gateways[r]``
    is region ``r``'s elected gateway.  ``dropped_intra_bps`` is the intra-region volume the
    aggregation removed from routing.  ``label`` marks results derived
    from this matrix as approximate (``"region~<n>"``).
    """

    matrix: TrafficMatrix
    gateways: Tuple[str, ...]
    dropped_intra_bps: float
    label: str

    @property
    def n_regions(self) -> int:
        return len(self.gateways)


def geographic_regions(network: Network, n_regions: int) -> Dict[str, int]:
    """Deterministic geographic clustering of a network's nodes.

    Farthest-point k-center on great-circle distance: the first center is
    the node nearest the coordinate centroid, each further center the node
    farthest from all chosen centers; every node then joins its nearest
    center (all ties broken toward the lower sorted-name index).  Runs in
    O(n_regions x n) with vectorized haversines.
    """
    names = sorted(network.node_names)
    n = len(names)
    if n == 0:
        return {}
    if n_regions < 1:
        raise ValueError(f"need >= 1 region, got {n_regions}")
    n_regions = min(n_regions, n)
    lats = np.asarray(
        [network.node(name).lat_deg for name in names], dtype=np.float64
    )
    lons = np.asarray(
        [network.node(name).lon_deg for name in names], dtype=np.float64
    )
    center_lat = float(lats.mean())
    center_lon = float(lons.mean())
    from_centroid = great_circle_km_many(center_lat, center_lon, lats, lons)
    first = int(np.argmin(from_centroid))  # argmin ties -> lowest index
    centers = [first]
    center_dists = [
        great_circle_km_many(
            float(lats[first]), float(lons[first]), lats, lons
        )
    ]
    min_dist = center_dists[0].copy()
    while len(centers) < n_regions:
        farthest = int(np.argmax(min_dist))
        if min_dist[farthest] <= 0.0:
            # Every remaining node is co-located with a chosen center; a
            # duplicate center would own no nodes (ties assign to the
            # earlier center), leaving an empty region.
            break
        centers.append(farthest)
        dist = great_circle_km_many(
            float(lats[farthest]), float(lons[farthest]), lats, lons
        )
        center_dists.append(dist)
        min_dist = np.minimum(min_dist, dist)
    stacked = np.stack(center_dists)  # (n_centers, n)
    assignment = np.argmin(stacked, axis=0)  # ties -> lowest center index
    return {name: int(assignment[i]) for i, name in enumerate(names)}


def region_gateways(
    network: Network, node_region: Dict[str, int]
) -> Tuple[str, ...]:
    """One gateway per region: the highest-degree member, ties by name."""
    n_regions = max(node_region.values()) + 1 if node_region else 0
    best: List[Optional[str]] = [None] * n_regions
    for name in sorted(node_region):
        region = node_region[name]
        incumbent = best[region]
        if incumbent is None or network.degree(name) > network.degree(incumbent):
            best[region] = name
    gateways: List[str] = []
    for region, gateway in enumerate(best):
        if gateway is None:
            raise ValueError(f"region {region} has no members")
        gateways.append(gateway)
    return tuple(gateways)


def aggregate_by_region(
    network: Network, tm: TrafficMatrix, n_regions: int
) -> RegionalDemands:
    """Aggregate a matrix onto per-region gateways (always aggregates).

    Use :func:`maybe_aggregate` for the budget-gated entry point that
    stays exact at zoo scale.
    """
    node_region = geographic_regions(network, n_regions)
    gateways = region_gateways(network, node_region)
    node_map = {name: gateways[region] for name, region in node_region.items()}
    matrix = tm.aggregated(node_map)
    dropped = tm.total_demand_bps - matrix.total_demand_bps
    return RegionalDemands(
        matrix=matrix,
        gateways=gateways,
        dropped_intra_bps=dropped,
        label=f"region~{len(gateways)}",
    )


def maybe_aggregate(
    network: Network,
    tm: TrafficMatrix,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> Tuple[TrafficMatrix, Optional[RegionalDemands]]:
    """The matrix to route, aggregated only when it exceeds the budget.

    Returns ``(tm, None)`` — bit-exact, nothing changed — while the pair
    count fits ``max_pairs``.  Beyond it, returns the gateway matrix plus
    the :class:`RegionalDemands` describing the (labelled) approximation,
    over the largest region count whose full gateway-pair grid still fits
    the budget.
    """
    if max_pairs < 2:
        raise ValueError(f"max_pairs must be >= 2, got {max_pairs}")
    if len(tm) <= max_pairs:
        return tm, None
    # Largest r with r*(r-1) <= max_pairs.
    n_regions = int((1.0 + (1.0 + 4.0 * max_pairs) ** 0.5) / 2.0)
    while n_regions * (n_regions - 1) > max_pairs:
        n_regions -= 1
    n_regions = max(2, n_regions)
    regional = aggregate_by_region(network, tm, n_regions)
    return regional.matrix, regional
