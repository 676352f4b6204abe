"""Flow decomposition: turn per-link flows into path allocations.

The link-based multi-commodity formulation yields, per aggregate, a rate on
every directed link.  Any conservative flow decomposes into at most |E|
paths (plus cycles, which an optimal LP solution never carries because they
only add delay cost).  We repeatedly extract the lowest-delay path through
the positive-flow links and strip the bottleneck rate from it.

:class:`ResidualFlow` is that stripping loop's state, shared with the
MinMax seed-path decomposition (:func:`repro.routing.minmax.mcf_seed_paths`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.net.graph import Network
from repro.net.index import graph_index
from repro.net.paths import Path

FLOW_EPSILON = 1e-9


class ResidualFlow:
    """Per-link flows left to strip, on the network's :class:`GraphIndex`.

    A link is usable while it carries flow: a per-CSR-position mask is
    cleared for every link given and set again once its flow runs out
    (``<= FLOW_EPSILON``).  Every search is one masked Dijkstra on the
    base index.  It relaxes links in exactly the order a search over a
    copy of the network holding only the flow-carrying links would — the
    copy keeps every node (so the same ids) and each node's adjacency
    order — so it returns the same paths, ties included.
    """

    def __init__(
        self, network: Network, link_flow: Mapping[Tuple[str, str], float]
    ) -> None:
        index = graph_index(network)
        self._index = index
        self._blocked = bytearray(b"\x01") * index.num_edges
        self._flow: Dict[int, float] = {}
        for (u, v), flow in link_flow.items():
            pos = index.edge_position(index.node_id(u), index.node_id(v))
            self._blocked[pos] = 0
            self._flow[pos] = flow

    def shortest_path(
        self, src: str, dst: str
    ) -> Optional[Tuple[Path, List[int]]]:
        """The lowest-delay path over links that still carry flow, with
        its links' CSR positions; ``None`` when there is no such path."""
        if src == dst:
            raise ValueError("source and destination must differ")
        index = self._index
        s = index.node_id(src)
        try:
            t = index.node_id(dst)
        except KeyError:
            return None
        dist, parent, _ = index.dijkstra_ids(s, t, self._blocked)
        if dist[t] == math.inf:
            return None
        ids = index.extract_ids(parent, s, t)
        positions = [
            index.edge_position(ids[i], ids[i + 1]) for i in range(len(ids) - 1)
        ]
        return index.to_names(ids), positions

    def bottleneck(self, positions: List[int]) -> float:
        """The least flow left on any of the given links."""
        return min(self._flow[pos] for pos in positions)

    def strip(self, positions: List[int], amount: float) -> None:
        """Take ``amount`` off each given link; drop the links it empties."""
        for pos in positions:
            left = self._flow[pos] - amount
            if left <= FLOW_EPSILON:
                del self._flow[pos]
                self._blocked[pos] = 1
            else:
                self._flow[pos] = left


def decompose_flow(
    network: Network,
    src: str,
    dst: str,
    link_flow_bps: Dict[Tuple[str, str], float],
    demand_bps: float,
) -> List[Tuple[Path, float]]:
    """Decompose one aggregate's link flows into (path, fraction) splits.

    Fractions are relative to ``demand_bps``.  Tiny residuals (LP noise)
    are discarded; the caller is expected to renormalize.
    """
    if demand_bps <= 0:
        raise ValueError(f"demand must be positive, got {demand_bps}")
    remaining = ResidualFlow(network, {
        key: flow for key, flow in link_flow_bps.items() if flow > FLOW_EPSILON
    })
    splits: List[Tuple[Path, float]] = []
    delivered = 0.0
    # |E| iterations suffice for any conservative flow; the +1 margin
    # absorbs epsilon effects.
    for _ in range(len(link_flow_bps) + 1):
        if delivered >= demand_bps * (1.0 - 1e-6):
            break
        found = remaining.shortest_path(src, dst)
        if found is None:
            break
        path, positions = found
        bottleneck = remaining.bottleneck(positions)
        remaining.strip(positions, bottleneck)
        splits.append((path, bottleneck / demand_bps))
        delivered += bottleneck
    return splits
