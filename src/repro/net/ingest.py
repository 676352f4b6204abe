"""Internet-scale topology ingestion.

Two ways to get graphs two orders larger than the synthetic zoo:

* **Distances+bandwidth JSON** (the Mininet-style format of SNIPPETS §1):
  a document with a ``distances`` mapping (kilometres between directly
  connected nodes) and an optional ``bandwidth`` mapping (link capacity per
  connection).  Only directly linked node pairs appear; the topology is
  reconstructed from that connection data.  We additionally understand
  optional ``coordinates`` (per-node ``[lat, lon]``) and ``delays`` (exact
  per-link seconds, written by :func:`to_distances_json` so a repro-built
  network round-trips losslessly — kilometre-derived delays alone would
  drift by the route-factor and minimum-delay floor).

* **Seeded synthesis** of Internet-like graphs from power-law degree
  distributions, à la the CAIDA AS-graph derivations of SNIPPETS §2: a
  configuration-model wiring of sampled degrees, repaired to a single
  connected component, with continent-clustered geography so link delays
  are realistic.  Fully deterministic for a given seed.

Both emit ordinary :class:`~repro.net.graph.Network` objects (all links
full duplex), so everything downstream — the integer-indexed sparse core,
KSP caches, LPs, the experiment engine — works unchanged.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.net.geo import (
    DEFAULT_ROUTE_FACTOR,
    FIBRE_SPEED_KM_PER_S,
    great_circle_km,
    span_delay_s,
)
from repro.net.graph import Network, Node
from repro.net.units import Gbps
from repro.net.zoo import CONTINENTS, _capacity_for

#: Default capacity for connections the document lists no bandwidth for.
DEFAULT_CAPACITY_BPS = Gbps(10)


# ----------------------------------------------------------------------
# Distances+bandwidth JSON
# ----------------------------------------------------------------------
def network_from_distances(
    payload: Mapping[str, Any],
    name: str = "ingest",
) -> Network:
    """Reconstruct a :class:`Network` from a distances+bandwidth document.

    ``distances`` holds kilometres between directly connected nodes; each
    connection becomes one full-duplex link.  A connection listed in both
    directions must agree on its values.  ``bandwidth`` values are in
    bits/s; connections without one get :data:`DEFAULT_CAPACITY_BPS`.
    Link delays without an exact ``delays`` entry are
    :func:`~repro.net.geo.span_delay_s` of the distance.  Construction is
    deterministic: nodes in sorted-name order, links in sorted canonical
    (min, max) pair order.
    """
    distances = payload.get("distances")
    if not isinstance(distances, Mapping):
        raise ValueError("not a distances+bandwidth document (no 'distances')")
    bandwidth = payload.get("bandwidth") or {}
    coordinates = payload.get("coordinates") or {}
    delays = payload.get("delays") or {}

    node_set = set(coordinates)
    for src, row in distances.items():
        node_set.add(src)
        node_set.update(row)

    network = Network(str(payload.get("name") or name))
    for node_name in sorted(node_set):
        coord = coordinates.get(node_name)
        if coord is not None:
            lat, lon = float(coord[0]), float(coord[1])
        else:
            lat, lon = 0.0, 0.0
        network.add_node(Node(str(node_name), lat, lon))

    pairs: Dict[Tuple[str, str], float] = {}
    for src in sorted(distances):
        row = distances[src]
        if not isinstance(row, Mapping):
            raise ValueError(f"distances[{src!r}] is not a mapping")
        for dst in sorted(row):
            if src == dst:
                raise ValueError(f"self-loop distance at {src!r}")
            km = float(row[dst])
            if km < 0:
                raise ValueError(f"negative distance {src}-{dst}: {km}")
            key = (src, dst) if src < dst else (dst, src)
            if key in pairs:
                if pairs[key] != km:
                    raise ValueError(
                        f"conflicting distances for {key[0]}-{key[1]}: "
                        f"{pairs[key]} vs {km}"
                    )
                continue
            pairs[key] = km

    def _directed(table: Mapping[str, Any], a: str, b: str) -> Optional[float]:
        row = table.get(a)
        if isinstance(row, Mapping) and b in row:
            return float(row[b])
        return None

    for (a, b), km in pairs.items():
        forward = _directed(bandwidth, a, b)
        backward = _directed(bandwidth, b, a)
        if forward is not None and backward is not None and forward != backward:
            raise ValueError(
                f"conflicting bandwidth for {a}-{b}: {forward} vs {backward}"
            )
        raw = forward if forward is not None else backward
        capacity = raw if raw is not None else DEFAULT_CAPACITY_BPS
        exact_fw = _directed(delays, a, b)
        exact_bw = _directed(delays, b, a)
        if exact_fw is not None and exact_bw is not None and exact_fw != exact_bw:
            raise ValueError(
                f"conflicting delays for {a}-{b}: {exact_fw} vs {exact_bw}"
            )
        exact = exact_fw if exact_fw is not None else exact_bw
        if exact is not None:
            delay = float(exact)
        else:
            delay = span_delay_s(km)
        network.add_duplex_link(a, b, capacity, delay)
    return network


def from_distances_json(text: str, name: str = "ingest") -> Network:
    """Parse a distances+bandwidth JSON string into a :class:`Network`."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("not a distances+bandwidth document")
    return network_from_distances(payload, name=name)


def load_distances(path: "os.PathLike[str] | str") -> Network:
    """Load a distances+bandwidth JSON file.

    The network is named after the file (sans extension) unless the
    document carries its own ``name``.
    """
    path = os.fspath(path)
    with open(path) as handle:
        text = handle.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return from_distances_json(text, name=stem)


def distances_jsonable(network: Network) -> Dict[str, Any]:
    """The distances+bandwidth document for a (duplex) network.

    Every physical link must exist in both directions with matching
    capacity and delay — the format has no way to express asymmetry.
    Kilometre distances are back-derived from delays for interoperability
    with external readers; the exact per-link ``delays`` are included so
    :func:`network_from_distances` round-trips the network losslessly
    (same signature).
    """
    duplex = network.duplex_pairs()
    if 2 * len(duplex) != network.num_links:
        raise ValueError(
            f"network {network.name!r} has simplex links; the "
            f"distances+bandwidth format only describes duplex topologies"
        )
    distances: Dict[str, Dict[str, float]] = {}
    bandwidth: Dict[str, Dict[str, float]] = {}
    delays: Dict[str, Dict[str, float]] = {}
    for a, b in sorted(duplex):
        forward = network.link(a, b)
        backward = network.link(b, a)
        if (
            forward.capacity_bps != backward.capacity_bps
            or forward.delay_s != backward.delay_s
        ):
            raise ValueError(
                f"asymmetric duplex link {a}-{b}; the distances+bandwidth "
                f"format only describes symmetric links"
            )
        km = forward.delay_s * FIBRE_SPEED_KM_PER_S / DEFAULT_ROUTE_FACTOR
        distances.setdefault(a, {})[b] = km
        bandwidth.setdefault(a, {})[b] = forward.capacity_bps
        delays.setdefault(a, {})[b] = forward.delay_s
    coordinates = {
        name: [network.node(name).lat_deg, network.node(name).lon_deg]
        for name in sorted(network.node_names)
    }
    return {
        "name": network.name,
        "distances": distances,
        "bandwidth": bandwidth,
        "delays": delays,
        "coordinates": coordinates,
    }


def to_distances_json(network: Network) -> str:
    """Serialize a duplex network as a distances+bandwidth JSON string."""
    return json.dumps(distances_jsonable(network), indent=2)


# ----------------------------------------------------------------------
# CAIDA-style synthesis from degree distributions
# ----------------------------------------------------------------------
def synthesize_internet_like(
    n_nodes: int,
    seed: int,
    degree_exponent: float = 2.1,
) -> Network:
    """A seeded Internet-like topology from a power-law degree distribution.

    Degrees are sampled from ``P(k) ∝ k^-degree_exponent`` on
    ``[2, max(3, round(sqrt(n)))]`` (the usual AS-graph cutoff), wired
    with a configuration model (self-loops and duplicate pairs discarded),
    and repaired to one connected component by attaching each minor
    component's best-connected member to the giant component's.  Nodes are placed on continent-clustered coordinates so
    delays follow real geography; capacities follow the zoo's
    distance-based provisioning classes.  Deterministic for a given
    ``(n_nodes, seed, degree_exponent)``; the network is named
    ``internet-like-<n>`` and its node names are zero-padded (``as0042``)
    so sorted-name order equals construction order.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if not 0.0 < degree_exponent < float("inf"):  # NaN fails both bounds
        raise ValueError(
            f"degree exponent must be positive and finite, got {degree_exponent}"
        )
    max_degree = max(3, int(round(n_nodes**0.5)))
    rng = np.random.default_rng(seed)

    # Sampled degree sequence with an even stub total.
    ks = np.arange(2, max_degree + 1, dtype=np.int64)
    weights = ks.astype(np.float64) ** (-degree_exponent)
    weights /= weights.sum()
    degrees = rng.choice(ks, size=n_nodes, p=weights)
    if int(degrees.sum()) % 2 == 1:
        degrees[int(np.argmax(degrees))] += 1

    # Configuration-model wiring: shuffle stubs, pair consecutively, drop
    # self-loops and duplicates (negligible mass at sqrt-n degree cap).
    stubs = np.repeat(np.arange(n_nodes, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    stub_list = stubs.tolist()
    pair_seen = set()
    pair_order: List[Tuple[int, int]] = []
    for i in range(0, len(stub_list) - 1, 2):
        a = stub_list[i]
        b = stub_list[i + 1]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key in pair_seen:
            continue
        pair_seen.add(key)
        pair_order.append(key)

    # Connectivity repair: attach every minor component to the giant one.
    adjacency: List[List[int]] = [[] for _ in range(n_nodes)]
    for a, b in pair_order:
        adjacency[a].append(b)
        adjacency[b].append(a)
    component = [-1] * n_nodes
    components: List[List[int]] = []
    for start in range(n_nodes):
        if component[start] >= 0:
            continue
        label = len(components)
        members = [start]
        component[start] = label
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in adjacency[node]:
                if component[nbr] < 0:
                    component[nbr] = label
                    members.append(nbr)
                    frontier.append(nbr)
        members.sort()
        components.append(members)
    if len(components) > 1:
        def _hub(members: List[int]) -> int:
            best = members[0]
            for node in members:
                if len(adjacency[node]) > len(adjacency[best]):
                    best = node
            return best

        components.sort(key=lambda members: (-len(members), members[0]))
        giant_hub = _hub(components[0])
        for members in components[1:]:
            hub = _hub(members)
            key = (hub, giant_hub) if hub < giant_hub else (giant_hub, hub)
            if key not in pair_seen:
                pair_seen.add(key)
                pair_order.append(key)
                adjacency[key[0]].append(key[1])
                adjacency[key[1]].append(key[0])

    # Continent-clustered geography (AS-graph realism: most links are
    # intra-continental, a few are submarine long-hauls).
    region_weights = np.asarray([0.3, 0.3, 0.25, 0.15], dtype=np.float64)
    region_ids = rng.choice(
        len(CONTINENTS), size=n_nodes, p=region_weights
    ).tolist()
    lat_u = rng.uniform(0.0, 1.0, size=n_nodes).tolist()
    lon_u = rng.uniform(0.0, 1.0, size=n_nodes).tolist()

    width = len(str(n_nodes - 1))
    network = Network(f"internet-like-{n_nodes}")
    node_names: List[str] = []
    for i in range(n_nodes):
        region = CONTINENTS[region_ids[i]]
        lat = region.lat_min + lat_u[i] * (region.lat_max - region.lat_min)
        lon = region.lon_min + lon_u[i] * (region.lon_max - region.lon_min)
        node_name = f"as{i:0{width}d}"
        node_names.append(node_name)
        network.add_node(Node(node_name, lat, lon))
    for a, b in pair_order:
        node_a = network.node(node_names[a])
        node_b = network.node(node_names[b])
        distance = great_circle_km(
            node_a.lat_deg, node_a.lon_deg, node_b.lat_deg, node_b.lon_deg
        )
        delay = span_delay_s(distance)
        network.add_duplex_link(
            node_names[a], node_names[b], _capacity_for(distance, rng), delay
        )
    return network


def degree_histogram(network: Network) -> Dict[int, int]:
    """Out-degree histogram (degree -> node count), ascending by degree."""
    counts: Dict[int, int] = {}
    for node_name in network.node_names:
        degree = network.degree(node_name)
        counts[degree] = counts.get(degree, 0) + 1
    return {degree: counts[degree] for degree in sorted(counts)}
