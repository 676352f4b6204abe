"""Synthetic topology zoo.

The paper evaluates on 116 real backbones from the Internet Topology Zoo
(with >10 ms diameter).  That dataset is not redistributable here, so this
module generates a deterministic synthetic zoo spanning the same structural
classes the paper identifies:

* trees and stars — low LLPD ("an LLPD of close to zero usually indicates a
  more tree-like network");
* wide rings — mid-range LLPD ("the latency cost of going the wrong way
  around the ring can be high");
* two-dimensional grids — high LLPD (the paper's GTS Central Europe
  example);
* multi-continent meshes — high LLPD (the paper's Cogent example);
* cliques — the "overlay" networks that show up as horizontal lines in the
  paper's Figure 1.

All networks have geographic PoPs and link delays computed from great-circle
distances (as the paper does via REPETITA-computed latencies), and spans
large enough that network diameter exceeds 10 ms.  Every family generator
takes a ``numpy.random.Generator`` so the zoo is fully reproducible; the
named replicas (:func:`gts_like` and friends) are fixed draws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.net.geo import link_delay_s
from repro.net.graph import Network, Node
from repro.net.units import Gbps


@dataclass(frozen=True)
class Region:
    """A rectangular geographic region PoPs can be placed in."""

    name: str
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def sample(self, rng: np.random.Generator, n: int) -> List[Tuple[float, float]]:
        lats = rng.uniform(self.lat_min, self.lat_max, size=n)
        lons = rng.uniform(self.lon_min, self.lon_max, size=n)
        return list(zip(lats.tolist(), lons.tolist()))


EUROPE = Region("europe", 40.0, 58.0, -8.0, 25.0)
CENTRAL_EUROPE = Region("central-europe", 46.0, 54.0, 8.0, 22.0)
NORTH_AMERICA = Region("north-america", 30.0, 48.0, -122.0, -72.0)
ASIA = Region("asia", 10.0, 45.0, 75.0, 140.0)
SOUTH_AMERICA = Region("south-america", -35.0, 5.0, -75.0, -40.0)
CONTINENTS = [EUROPE, NORTH_AMERICA, ASIA, SOUTH_AMERICA]


def _capacity_for(distance_km: float, rng: np.random.Generator) -> float:
    """Pick a realistic capacity class for a link of the given length.

    Long-haul spans are usually provisioned fatter than metro tails, which
    matters to APA: a thin link is not a viable alternate for a fat path.
    """
    if distance_km > 3000.0:
        choices = [Gbps(100), Gbps(400)]
    elif distance_km > 800.0:
        choices = [Gbps(40), Gbps(100)]
    else:
        choices = [Gbps(10), Gbps(40), Gbps(100)]
    return float(rng.choice(choices))


def _add_geo_link(
    network: Network,
    a: str,
    b: str,
    rng: np.random.Generator,
    capacity_bps: Optional[float] = None,
) -> None:
    na, nb = network.node(a), network.node(b)
    delay = link_delay_s(na.lat_deg, na.lon_deg, nb.lat_deg, nb.lon_deg)
    if capacity_bps is None:
        from repro.net.geo import great_circle_km

        distance = great_circle_km(na.lat_deg, na.lon_deg, nb.lat_deg, nb.lon_deg)
        capacity_bps = _capacity_for(distance, rng)
    network.add_duplex_link(a, b, capacity_bps, delay)


def _place_nodes(
    network: Network, region: Region, n: int, rng: np.random.Generator
) -> List[str]:
    names = [f"{region.name}-{i}" for i in range(n)]
    for name, (lat, lon) in zip(names, region.sample(rng, n)):
        network.add_node(Node(name, lat, lon))
    return names


def _geo_distance(network: Network, a: str, b: str) -> float:
    from repro.net.geo import great_circle_km

    na, nb = network.node(a), network.node(b)
    return great_circle_km(na.lat_deg, na.lon_deg, nb.lat_deg, nb.lon_deg)


def _euclidean_spanning_tree(
    network: Network, names: Sequence[str], rng: np.random.Generator
) -> None:
    """Connect nodes with a greedy geographic spanning tree.

    Each unconnected node attaches to its nearest already-connected node,
    which mimics how backbones grow organically from an initial core.
    """
    connected = [names[0]]
    for name in names[1:]:
        nearest = min(connected, key=lambda c: _geo_distance(network, name, c))
        _add_geo_link(network, name, nearest, rng)
        connected.append(name)


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------
def tree_network(
    n: int, rng: np.random.Generator, region: Region = NORTH_AMERICA, name: str = ""
) -> Network:
    """A random geographic tree: the low-LLPD end of the zoo."""
    network = Network(name or f"tree-{n}")
    names = _place_nodes(network, region, n, rng)
    _euclidean_spanning_tree(network, names, rng)
    return network


def star_network(
    n: int, rng: np.random.Generator, region: Region = EUROPE, name: str = ""
) -> Network:
    """A hub-and-spoke network: zero alternate paths anywhere."""
    network = Network(name or f"star-{n}")
    names = _place_nodes(network, region, n, rng)
    hub = names[0]
    for leaf in names[1:]:
        _add_geo_link(network, hub, leaf, rng)
    return network


def ring_network(
    n: int, rng: np.random.Generator, region: Region = EUROPE, name: str = ""
) -> Network:
    """A wide geographic ring: mid-range LLPD.

    PoPs are sorted by angle around the region centroid so the ring follows
    geography instead of crossing itself, making the "wrong way around"
    detour genuinely long, as the paper describes.
    """
    network = Network(name or f"ring-{n}")
    names = _place_nodes(network, region, n, rng)
    center_lat = sum(network.node(x).lat_deg for x in names) / n
    center_lon = sum(network.node(x).lon_deg for x in names) / n
    names.sort(
        key=lambda x: math.atan2(
            network.node(x).lat_deg - center_lat, network.node(x).lon_deg - center_lon
        )
    )
    for i, name_i in enumerate(names):
        _add_geo_link(network, name_i, names[(i + 1) % n], rng)
    return network


def ladder_network(
    n_rungs: int, rng: np.random.Generator, region: Region = NORTH_AMERICA, name: str = ""
) -> Network:
    """Two parallel east-west chains with rungs: modest path diversity."""
    network = Network(name or f"ladder-{n_rungs}")
    lat_north = (region.lat_min + region.lat_max) / 2 + 4.0
    lat_south = lat_north - 8.0
    lons = np.linspace(region.lon_min, region.lon_max, n_rungs)
    for i, lon in enumerate(lons):
        network.add_node(Node(f"north-{i}", lat_north, float(lon)))
        network.add_node(Node(f"south-{i}", lat_south, float(lon)))
    for i in range(n_rungs):
        _add_geo_link(network, f"north-{i}", f"south-{i}", rng)
        if i + 1 < n_rungs:
            _add_geo_link(network, f"north-{i}", f"north-{i+1}", rng)
            _add_geo_link(network, f"south-{i}", f"south-{i+1}", rng)
    return network


def grid_network(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    region: Region = CENTRAL_EUROPE,
    diagonal_fraction: float = 0.15,
    name: str = "",
) -> Network:
    """A two-dimensional grid with a sprinkle of diagonals: high LLPD.

    This is the paper's "well interconnected, resembling a two-dimensional
    grid" class, exemplified by GTS Central Europe.
    """
    network = Network(name or f"grid-{rows}x{cols}")
    lats = np.linspace(region.lat_max, region.lat_min, rows)
    lons = np.linspace(region.lon_min, region.lon_max, cols)
    for r in range(rows):
        for c in range(cols):
            jitter_lat = float(rng.uniform(-0.3, 0.3))
            jitter_lon = float(rng.uniform(-0.3, 0.3))
            network.add_node(
                Node(f"n{r}-{c}", float(lats[r]) + jitter_lat, float(lons[c]) + jitter_lon)
            )
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                _add_geo_link(network, f"n{r}-{c}", f"n{r}-{c+1}", rng)
            if r + 1 < rows:
                _add_geo_link(network, f"n{r}-{c}", f"n{r+1}-{c}", rng)
            if (
                r + 1 < rows
                and c + 1 < cols
                and rng.random() < diagonal_fraction
            ):
                _add_geo_link(network, f"n{r}-{c}", f"n{r+1}-{c+1}", rng)
    return network


def mesh_network(
    n: int,
    rng: np.random.Generator,
    region: Region = EUROPE,
    neighbors: int = 3,
    long_link_fraction: float = 0.08,
    name: str = "",
) -> Network:
    """A geographic mesh: spanning tree + nearest-neighbour densification.

    ``neighbors`` controls density (and therefore LLPD); ``2`` gives sparse,
    barely-redundant networks, ``4``-``5`` approaches grid-like diversity.
    """
    network = Network(name or f"mesh-{n}")
    names = _place_nodes(network, region, n, rng)
    _euclidean_spanning_tree(network, names, rng)
    for node in names:
        others = sorted(
            (other for other in names if other != node),
            key=lambda other: _geo_distance(network, node, other),
        )
        added = 0
        for other in others:
            if added >= neighbors:
                break
            if network.has_link(node, other):
                # Existing adjacency counts toward the density target.
                added += 1
                continue
            _add_geo_link(network, node, other, rng)
            added += 1
    # A few random long links mimic express routes.
    n_long = max(0, int(long_link_fraction * n))
    for _ in range(n_long):
        a, b = rng.choice(names, size=2, replace=False)
        if not network.has_link(str(a), str(b)):
            _add_geo_link(network, str(a), str(b), rng)
    return network


def clique_network(
    n: int, rng: np.random.Generator, region: Region = NORTH_AMERICA, name: str = ""
) -> Network:
    """A full mesh: the overlay networks of the paper's Figure 1."""
    network = Network(name or f"clique-{n}")
    names = _place_nodes(network, region, n, rng)
    for a, b in itertools.combinations(names, 2):
        _add_geo_link(network, a, b, rng)
    return network


def multi_continent_network(
    rng: np.random.Generator,
    nodes_per_continent: int = 8,
    n_continents: int = 2,
    cross_links: int = 3,
    name: str = "",
) -> Network:
    """Dense continental clusters joined by a handful of long-haul links.

    Models the paper's Cogent class: "span more than one continent, with
    good path diversity between continents", where the long latency baseline
    makes alternate paths cheap in relative stretch.
    """
    network = Network(name or f"intercontinental-{n_continents}x{nodes_per_continent}")
    continents = CONTINENTS[:n_continents]
    clusters: List[List[str]] = []
    for region in continents:
        names = _place_nodes(network, region, nodes_per_continent, rng)
        _euclidean_spanning_tree(network, names, rng)
        # Densify within the continent.
        for node in names:
            others = sorted(
                (other for other in names if other != node),
                key=lambda other: _geo_distance(network, node, other),
            )
            added = network.degree(node)
            for other in others:
                if added >= 3:
                    break
                if not network.has_link(node, other):
                    _add_geo_link(network, node, other, rng)
                    added += 1
        clusters.append(names)
    # Multiple parallel links between each pair of continents: this is what
    # gives the class its intercontinental path diversity.
    for cluster_a, cluster_b in itertools.combinations(clusters, 2):
        for _ in range(cross_links):
            a = str(rng.choice(cluster_a))
            b = str(rng.choice(cluster_b))
            if not network.has_link(a, b):
                _add_geo_link(network, a, b, rng, capacity_bps=Gbps(400))
    return network


# ----------------------------------------------------------------------
# Named replicas
# ----------------------------------------------------------------------
def gts_like() -> Network:
    """A GTS-Central-Europe-like grid (the paper's Figure 2 example)."""
    rng = np.random.default_rng(7)
    return grid_network(4, 6, rng, region=CENTRAL_EUROPE, diagonal_fraction=0.2,
                        name="gts-like")


def cogent_like() -> Network:
    """A Cogent-like two-continent network with diverse crossings."""
    rng = np.random.default_rng(11)
    return multi_continent_network(
        rng, nodes_per_continent=10, n_continents=2, cross_links=4, name="cogent-like"
    )


def globalcenter_like() -> Network:
    """A Globalcenter-like full mesh (overlay) topology."""
    rng = np.random.default_rng(13)
    return clique_network(8, rng, name="globalcenter-like")


def google_like() -> Network:
    """A dense, globe-spanning enterprise WAN in the spirit of Google's SNet.

    The paper reports LLPD = 0.875 for Google's network — by far the highest
    measured — and shows (its Figure 19) that it cannot be routed with
    shortest paths alone.  This replica is a four-continent mesh with dense
    intra-continent connectivity and several parallel intercontinental
    links.
    """
    rng = np.random.default_rng(17)
    network = Network("google-like")
    clusters: List[List[str]] = []
    for region in CONTINENTS:
        names = _place_nodes(network, region, 6, rng)
        for a, b in itertools.combinations(names, 2):
            if _geo_distance(network, a, b) < 5000.0 or rng.random() < 0.7:
                _add_geo_link(network, a, b, rng, capacity_bps=Gbps(100))
        clusters.append(names)
    for cluster_a, cluster_b in itertools.combinations(clusters, 2):
        for _ in range(4):
            a = str(rng.choice(cluster_a))
            b = str(rng.choice(cluster_b))
            if not network.has_link(a, b):
                _add_geo_link(network, a, b, rng, capacity_bps=Gbps(400))
    return network


# ----------------------------------------------------------------------
# The zoo
# ----------------------------------------------------------------------
def generate_zoo(
    n_networks: int = 40, seed: int = 0, include_named: bool = True
) -> List[Network]:
    """A deterministic ensemble of synthetic backbones across all families.

    The family mix is chosen so that the resulting LLPD values cover the
    full range the paper observes (0 to ~0.9), with more mass at low-to-mid
    LLPD, as in the real Topology Zoo.
    """
    if n_networks < 1:
        raise ValueError(f"need at least one network, got {n_networks}")
    rng = np.random.default_rng(seed)
    recipes = []
    # Family mix: (builder, weight).  Builders draw their size parameters
    # from the shared rng so each instance differs.
    recipes.append(("tree", 0.16))
    recipes.append(("star", 0.06))
    recipes.append(("ring", 0.16))
    recipes.append(("ladder", 0.10))
    recipes.append(("sparse-mesh", 0.16))
    recipes.append(("grid", 0.14))
    recipes.append(("dense-mesh", 0.10))
    recipes.append(("intercontinental", 0.08))
    recipes.append(("clique", 0.04))
    labels = [label for label, _ in recipes]
    weights = np.array([weight for _, weight in recipes])
    weights = weights / weights.sum()

    networks: List[Network] = []
    regions = [EUROPE, NORTH_AMERICA, ASIA]
    for index in range(n_networks):
        family = str(rng.choice(labels, p=weights))
        region = regions[index % len(regions)]
        name = f"zoo-{index:03d}-{family}"
        if family == "tree":
            net = tree_network(int(rng.integers(10, 26)), rng, region, name)
        elif family == "star":
            net = star_network(int(rng.integers(8, 18)), rng, region, name)
        elif family == "ring":
            net = ring_network(int(rng.integers(8, 20)), rng, region, name)
        elif family == "ladder":
            net = ladder_network(int(rng.integers(4, 9)), rng, region, name)
        elif family == "sparse-mesh":
            net = mesh_network(int(rng.integers(12, 30)), rng, region,
                               neighbors=2, name=name)
        elif family == "grid":
            rows = int(rng.integers(3, 6))
            cols = int(rng.integers(4, 7))
            net = grid_network(rows, cols, rng, CENTRAL_EUROPE, name=name)
        elif family == "dense-mesh":
            net = mesh_network(int(rng.integers(12, 26)), rng, region,
                               neighbors=4, long_link_fraction=0.15, name=name)
        elif family == "intercontinental":
            net = multi_continent_network(
                rng, nodes_per_continent=int(rng.integers(6, 11)),
                n_continents=2, cross_links=int(rng.integers(3, 5)), name=name
            )
        elif family == "clique":
            net = clique_network(int(rng.integers(6, 10)), rng, region, name)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown family {family}")
        networks.append(net)
    if include_named:
        networks.extend(
            [gts_like(), cogent_like(), globalcenter_like()]
        )
    return networks


def network_diameter_s(network: Network) -> float:
    """Largest shortest-path delay over all connected pairs."""
    from repro.net.paths import shortest_path_delays

    diameter = 0.0
    for src in network.node_names:
        delays = shortest_path_delays(network, src)
        if delays:
            diameter = max(diameter, max(delays.values()))
    return diameter
