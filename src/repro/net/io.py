"""Topology serialization: JSON round-trip and Topology Zoo GraphML import.

The paper's evaluation runs on the Internet Topology Zoo, distributed as
GraphML files with ``Latitude``/``Longitude`` node attributes.  Those files
are not bundled here, but users who have them can load them directly with
:func:`from_graphml` — link delays are derived from PoP geography exactly
as for the synthetic zoo, and capacities from the ``LinkSpeedRaw``
attribute when present.

The JSON format is this library's own: a faithful round-trip of the
:class:`~repro.net.graph.Network` model for saving generated or mutated
topologies.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.net.geo import link_delay_s
from repro.net.graph import Link, Network, Node
from repro.net.ingest import DEFAULT_CAPACITY_BPS

JSON_FORMAT_VERSION = 1


def to_json(network: Network) -> str:
    """Serialize a network (nodes, directed links) to a JSON string."""
    payload = {
        "format": "repro-network",
        "version": JSON_FORMAT_VERSION,
        "name": network.name,
        "nodes": [
            {
                "name": node.name,
                "lat_deg": node.lat_deg,
                "lon_deg": node.lon_deg,
            }
            for node in (network.node(n) for n in network.node_names)
        ],
        "links": [
            {
                "src": link.src,
                "dst": link.dst,
                "capacity_bps": link.capacity_bps,
                "delay_s": link.delay_s,
            }
            for link in network.links()
        ],
    }
    return json.dumps(payload, indent=2)


def from_json(text: str) -> Network:
    """Reconstruct a network from :func:`to_json` output."""
    payload = json.loads(text)
    if (
        not isinstance(payload, dict)
        or payload.get("format") != "repro-network"
    ):
        raise ValueError("not a repro network document")
    if payload.get("version") != JSON_FORMAT_VERSION:
        raise ValueError(f"unsupported version {payload.get('version')!r}")
    network = Network(payload.get("name", "network"))
    for node in payload["nodes"]:
        network.add_node(
            Node(node["name"], node.get("lat_deg", 0.0), node.get("lon_deg", 0.0))
        )
    for link in payload["links"]:
        network.add_link(
            Link(
                link["src"],
                link["dst"],
                link["capacity_bps"],
                link["delay_s"],
            )
        )
    return network


def load(path: str) -> Network:
    """Read a network from a JSON file.

    Understands both this library's ``repro-network`` documents and the
    external distances+bandwidth format (a top-level ``distances``
    mapping), which is routed to :mod:`repro.net.ingest` — so topology
    files from either world load through one entry point.
    """
    import os

    with open(path) as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON network document: {exc}")
    if (
        isinstance(payload, dict)
        and payload.get("format") != "repro-network"
        and "distances" in payload
    ):
        from repro.net.ingest import network_from_distances

        stem = os.path.splitext(os.path.basename(path))[0]
        return network_from_distances(payload, name=stem)
    return from_json(text)


def from_graphml(path: str) -> Network:  # analysis: allow[R401] Zoo input; no GraphML file ships
    """Load a Topology Zoo GraphML file.

    Nodes without coordinates are dropped (as are their links), matching
    common practice with the Zoo's partially-annotated files.  Duplicate
    edges between the same PoP pair have their capacities summed into one
    duplex link.  Delays come from great-circle geography; capacities from
    ``LinkSpeedRaw`` (bits/s) when present, else the ingest default,
    :data:`~repro.net.ingest.DEFAULT_CAPACITY_BPS`.
    """
    import networkx as nx

    graph = nx.read_graphml(path)
    network = Network(str(graph.graph.get("Network", "graphml")))

    def coordinates(attrs) -> Optional[tuple]:
        lat, lon = attrs.get("Latitude"), attrs.get("Longitude")
        if lat is None or lon is None:
            return None
        return float(lat), float(lon)

    kept = {}
    for node_id, attrs in graph.nodes(data=True):
        coords = coordinates(attrs)
        if coords is None:
            continue
        label = str(attrs.get("label", node_id))
        # Disambiguate duplicate labels (the Zoo has a few).
        unique = label
        suffix = 1
        while network.has_node(unique):
            suffix += 1
            unique = f"{label}#{suffix}"
        network.add_node(Node(unique, coords[0], coords[1]))
        kept[node_id] = unique

    capacities: dict = {}
    for src_id, dst_id, attrs in graph.edges(data=True):
        if src_id not in kept or dst_id not in kept or src_id == dst_id:
            continue
        a, b = kept[src_id], kept[dst_id]
        key = (min(a, b), max(a, b))
        speed = attrs.get("LinkSpeedRaw")
        capacity = float(speed) if speed else DEFAULT_CAPACITY_BPS
        capacities[key] = capacities.get(key, 0.0) + capacity

    for (a, b), capacity in capacities.items():
        na, nb = network.node(a), network.node(b)
        delay = link_delay_s(na.lat_deg, na.lon_deg, nb.lat_deg, nb.lon_deg)
        network.add_duplex_link(a, b, capacity, delay)
    return network
