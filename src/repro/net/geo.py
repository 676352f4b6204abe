"""Geographic helpers.

The paper derives link propagation delays from PoP geography (the Topology
Zoo augmented with computed link latencies).  We do the same for the
synthetic zoo: PoPs carry latitude/longitude, and a link's propagation delay
is its great-circle length divided by the speed of light in fibre.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt

EARTH_RADIUS_KM = 6371.0

# Speed of light in fibre is roughly two thirds of c; 200,000 km/s is the
# conventional engineering figure for WAN latency estimation.
FIBRE_SPEED_KM_PER_S = 200_000.0

# Real fibre paths are never great circles; a routing factor inflates the
# geodesic distance to account for conduit detours.
DEFAULT_ROUTE_FACTOR = 1.2

#: Floor under every link delay: short metro links never have truly zero
#: delay (equipment and tail circuits), and zero-delay links would make
#: every Dijkstra comparison a tie.
MIN_LINK_DELAY_S = 50e-6


def great_circle_km(
    lat1_deg: float, lon1_deg: float, lat2_deg: float, lon2_deg: float
) -> float:
    """Great-circle distance between two points, in kilometres.

    Uses the haversine formula, which is numerically stable for the small
    and medium distances that dominate backbone topologies.
    """
    lat1 = math.radians(lat1_deg)
    lon1 = math.radians(lon1_deg)
    lat2 = math.radians(lat2_deg)
    lon2 = math.radians(lon2_deg)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * (
        math.sin(dlon / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def great_circle_km_many(
    lat_deg: float,
    lon_deg: float,
    lats_deg: "npt.NDArray[np.float64]",
    lons_deg: "npt.NDArray[np.float64]",
) -> "npt.NDArray[np.float64]":
    """Great-circle distances from one point to many, in kilometres.

    Vectorized haversine for ingest-scale geographic clustering
    (:mod:`repro.tm.regions`), where a Python-loop haversine per
    node x center pair would dominate the aggregation cost.  Matches
    :func:`great_circle_km` to float64 rounding.
    """
    lat1 = math.radians(lat_deg)
    lon1 = math.radians(lon_deg)
    lat2 = np.radians(lats_deg)
    lon2 = np.radians(lons_deg)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + math.cos(lat1) * np.cos(lat2) * (
        np.sin(dlon / 2.0) ** 2
    )
    result: "npt.NDArray[np.float64]" = 2.0 * EARTH_RADIUS_KM * np.arcsin(
        np.minimum(1.0, np.sqrt(a))
    )
    return result


def propagation_delay_s(distance_km: float) -> float:
    """One-way propagation delay for a fibre span of the given length.

    :data:`DEFAULT_ROUTE_FACTOR` inflates the geodesic distance to model
    the fact that fibre follows roads and seabed contours rather than great
    circles.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    return distance_km * DEFAULT_ROUTE_FACTOR / FIBRE_SPEED_KM_PER_S


def span_delay_s(distance_km: float) -> float:
    """A link's delay for a fibre span: its propagation delay, floored at
    :data:`MIN_LINK_DELAY_S`."""
    return max(MIN_LINK_DELAY_S, propagation_delay_s(distance_km))


def link_delay_s(
    lat1_deg: float, lon1_deg: float, lat2_deg: float, lon2_deg: float
) -> float:
    """Propagation delay between two PoPs given their coordinates."""
    distance = great_circle_km(lat1_deg, lon1_deg, lat2_deg, lon2_deg)
    return span_delay_s(distance)
