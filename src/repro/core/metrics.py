"""APA and LLPD: measuring a topology's low-latency path diversity (§2).

For each PoP pair we take its lowest-delay path and ask, for every physical
link on that path, whether traffic could be routed *around* that link
without excessive extra delay and without losing capacity:

* alternates are paths in the network with the link removed, considered in
  increasing delay order;
* a set of alternates is *viable* once its joint min-cut reaches the
  bottleneck capacity of the original shortest path ("it is unreasonable to
  consider a 1 Gb/s link as providing a viable alternate to a congested
  100 Gb/s path");
* the delay of the alternate is the delay of the last (n-th) path added,
  and the link counts as routable-around if that delay is within the
  stretch limit (1.4 by default).

APA(pair) = fraction of links on the pair's shortest path that are
routable-around.  LLPD(network) = fraction of pairs with APA >= 0.7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.flows import max_flow_bps
from repro.net.graph import Network
from repro.net.paths import (
    all_pairs_shortest_paths,
    k_shortest_paths,
    path_bottleneck_bps,
    path_delay_s,
    path_links,
)

Pair = Tuple[str, str]


@dataclass(frozen=True)
class ApaParameters:
    """Knobs of the APA computation, with the paper's defaults."""

    #: Maximum acceptable delay stretch of a viable alternate (1.4 = 40%).
    stretch_limit: float = 1.4
    #: How many lowest-latency alternates may be combined for capacity.
    max_alternates: int = 8
    #: APA threshold defining "good" pairs for LLPD.
    llpd_threshold: float = 0.7

    def __post_init__(self) -> None:
        if self.stretch_limit < 1.0:
            raise ValueError(f"stretch limit must be >= 1, got {self.stretch_limit}")
        if self.max_alternates < 1:
            raise ValueError(
                f"need at least one alternate, got {self.max_alternates}"
            )
        if not 0.0 <= self.llpd_threshold <= 1.0:
            raise ValueError(
                f"LLPD threshold must be in [0, 1], got {self.llpd_threshold}"
            )


class _ReducedNetworkCache:
    """Per-physical-link copies of the network with that link removed.

    Every pair whose shortest path crosses a given physical link shares the
    same reduced network, so building it once per link (not once per
    pair-link combination) is the main APA speedup.
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self._cache: Dict[Tuple[str, str], Network] = {}

    def without(self, u: str, v: str) -> Network:
        key = (min(u, v), max(u, v))
        if key not in self._cache:
            self._cache[key] = self._network.without_duplex_link(u, v)
        return self._cache[key]


def _link_routable_around(
    network: Network,
    reduced: Network,
    src: str,
    dst: str,
    shortest_delay_s: float,
    required_bps: float,
    params: ApaParameters,
) -> bool:
    """Can (src, dst) traffic avoid the removed link within the stretch limit?"""
    delay_budget = shortest_delay_s * params.stretch_limit
    alternates: List[Tuple[str, ...]] = []
    union_links: set = set()
    for path in k_shortest_paths(reduced, src, dst):
        delay = path_delay_s(reduced, path)
        if delay > delay_budget + 1e-12:
            # Paths arrive in non-decreasing delay order: nothing after
            # this one can be within budget either.
            return False
        alternates.append(path)
        union_links.update(path_links(path))
        if len(alternates) == 1:
            # Single-alternate fast path: its own bottleneck may suffice.
            if path_bottleneck_bps(reduced, path) >= required_bps:
                return True
        else:
            joint = max_flow_bps(reduced, src, dst, restrict_links=union_links)
            if joint >= required_bps:
                return True
        if len(alternates) >= params.max_alternates:
            return False
    return False


def pair_apa(
    network: Network,
    src: str,
    dst: str,
    params: ApaParameters = ApaParameters(),
    shortest: Optional[Tuple[str, ...]] = None,
    reduced_cache: Optional[_ReducedNetworkCache] = None,
) -> float:
    """Alternate path availability for one PoP pair, in [0, 1]."""
    from repro.net.paths import shortest_path

    if shortest is None:
        shortest = shortest_path(network, src, dst)
    reduced_cache = reduced_cache or _ReducedNetworkCache(network)
    shortest_delay = path_delay_s(network, shortest)
    required = path_bottleneck_bps(network, shortest)
    links = path_links(shortest)
    routable = 0
    for u, v in links:
        reduced = reduced_cache.without(u, v)
        if _link_routable_around(
            network, reduced, src, dst, shortest_delay, required, params
        ):
            routable += 1
    return routable / len(links)


def apa_all_pairs(
    network: Network, params: ApaParameters = ApaParameters()
) -> Dict[Pair, float]:
    """APA for every connected ordered PoP pair.

    Inherently quadratic (the paper's Figure 1 wants the full APA CDF);
    only ever run on zoo-scale networks.
    """
    shortest_paths = all_pairs_shortest_paths(network)
    cache = _ReducedNetworkCache(network)
    return {
        (src, dst): pair_apa(network, src, dst, params, path, cache)
        for (src, dst), path in shortest_paths.items()
    }


def apa_cdf(apa_values: Dict[Pair, float]) -> np.ndarray:
    """Sorted APA values: the per-network curves of the paper's Figure 1."""
    return np.sort(np.fromiter(apa_values.values(), dtype=float))


def llpd(
    network: Network, params: ApaParameters = ApaParameters()
) -> float:
    """Low latency path diversity: fraction of pairs with APA >= 0.7.

    "An LLPD of close to one indicates that for most PoP pairs, we can
    route around most of the links on their shortest path without incurring
    excessive delay."
    """
    values = apa_all_pairs(network, params)
    if not values:
        raise ValueError(f"network {network.name!r} has no connected pairs")
    good = sum(1 for value in values.values() if value >= params.llpd_threshold)
    return good / len(values)


def llpd_from_apa(
    apa_values: Dict[Pair, float], threshold: float = 0.7
) -> float:
    """LLPD computed from precomputed APA values (avoids recomputation)."""
    if not apa_values:
        raise ValueError("no APA values")
    good = sum(1 for value in apa_values.values() if value >= threshold)
    return good / len(apa_values)
