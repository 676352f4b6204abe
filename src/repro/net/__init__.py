"""Network substrate: graph model, geography, paths, flows and the topology zoo.

This subpackage provides everything the paper assumes as given about a
network: a directed-link graph annotated with propagation delays and
capacities (:mod:`repro.net.graph`), geographic helpers used to derive
realistic link delays (:mod:`repro.net.geo`), shortest-path and k-shortest
path machinery with caching (:mod:`repro.net.paths`), max-flow/min-cut
(:mod:`repro.net.flows`), a synthetic stand-in for the Internet Topology Zoo
(:mod:`repro.net.zoo`) and topology mutation utilities used by the network
growth study (:mod:`repro.net.mutate`).
"""

from repro.net.graph import Link, Network, Node
from repro.net.geo import great_circle_km, propagation_delay_s
from repro.net.paths import (
    KspCache,
    KspCacheMismatchError,
    all_pairs_shortest_paths,
    k_shortest_paths,
    ksp_cache_path,
    network_signature,
    path_bottleneck_bps,
    path_delay_s,
    path_links,
    shortest_path,
)
from repro.net.flows import max_flow_bps

__all__ = [
    "Link",
    "Network",
    "Node",
    "great_circle_km",
    "propagation_delay_s",
    "KspCache",
    "KspCacheMismatchError",
    "all_pairs_shortest_paths",
    "k_shortest_paths",
    "ksp_cache_path",
    "network_signature",
    "path_bottleneck_bps",
    "path_delay_s",
    "path_links",
    "shortest_path",
    "max_flow_bps",
]
