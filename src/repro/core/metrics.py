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

How it is computed, with every value bit-identical to running Yen and
max-flow on a copy of the network per removed link (``legacy_apa_all_pairs``
in ``tests/oracles.py``):

* **Masked views.**  Each physical link gets a view of the network's one
  :class:`~repro.net.index.GraphIndex` without that link.  The view
  relaxes links in the copy's order, so it returns the copy's paths, ties
  included (the argument is in :mod:`repro.net.index`).
* **First alternate from a shared sweep.**  The first alternate is the
  reduced network's shortest path, so one full masked sweep per (link,
  source) serves every target: its parent chain is the bounded search's,
  and its distance is summed left to right along the path, as
  ``path_delay_s`` sums it.  Most checks end here.
* **Flow guard.**  Every alternate APA accepts uses only links with
  ``fdist[u] + w + h[v] <= limit``, up to summation order (``fdist`` and
  ``h`` are the view's distances from the source and to the target).  If
  the max flow over all such links, with ``1e-9`` relative slack on both
  sides, is below the required capacity, no set of alternates can reach
  it and the check fails without Yen.
* **Yen bounded by the budget.**  The remaining checks run Yen on the view
  with every spur search capped at ``limit * (1 + 1e-6)`` minus its root's
  delay; :mod:`repro.net.index` explains why accepted alternates, and so
  the answer, are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import numpy.typing as npt

from repro.net.flows import max_flow_ids
from repro.net.graph import Network
from repro.net.index import GraphIndex, IdPath, graph_index
from repro.telemetry import recorder

Pair = Tuple[str, str]

_INF = float("inf")
#: Relative slack on the acceptance limit that caps Yen's spur searches.
_YEN_SLACK = 1.0 + 1e-6
#: Relative slack on both sides of the flow guard.
_GUARD_SLACK = 1e-9


@dataclass(frozen=True)
class ApaParameters:
    """Knobs of the APA computation, with the paper's defaults."""

    #: Maximum acceptable delay stretch of a viable alternate (1.4 = 40%).
    stretch_limit: float = 1.4  # analysis: allow[R402] tests sweep APA against the legacy oracle
    #: How many lowest-latency alternates may be combined for capacity.
    max_alternates: int = 8  # analysis: allow[R402] tests sweep APA against the legacy oracle
    #: APA threshold defining "good" pairs for LLPD.
    llpd_threshold: float = 0.7  # analysis: allow[R402] the paper's threshold; one object defines LLPD

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


@dataclass(frozen=True)
class _Check:
    """One pair's shortest path, in the terms every link check needs."""

    number: int
    t: int
    #: ``budget + 1e-12``: an alternate longer than this is rejected.
    limit: float
    required_bps: float


class _Apa:
    """APA over one network's index, with exact work tallies."""

    def __init__(self, index: GraphIndex, params: ApaParameters) -> None:
        self.index = index
        self.params = params
        self.csr = index.csr()
        self.checks = 0
        self.yen_checks = 0
        self.maxflows = 0

    def routable_around(
        self,
        view: GraphIndex,
        removed: List[int],
        s: int,
        dist: List[float],
        parent: List[int],
        check: _Check,
    ) -> bool:
        """Can the pair's traffic avoid the link ``view`` removes (at CSR
        positions ``removed``)?"""
        self.checks += 1
        t = check.t
        # The shared sweep's path is the first alternate (module docstring).
        if dist[t] > check.limit:
            return False
        delays, capacities = self.csr.delays, self.csr.capacities
        edge_position = view.edge_position
        first = view.extract_ids(parent, s, t)
        union = [edge_position(a, b) for a, b in zip(first, first[1:])]
        if min(capacities[pos] for pos in union) >= check.required_bps:
            return True
        if self.params.max_alternates == 1:
            return False
        self.yen_checks += 1
        if not self._flow_can_suffice(view, removed, s, dist, check):
            return False
        alternates = view.k_shortest_ids(s, t, check.limit * _YEN_SLACK)
        next(alternates)
        for count, path in enumerate(alternates, start=2):
            positions = [edge_position(a, b) for a, b in zip(path, path[1:])]
            delay = 0.0
            for pos in positions:
                delay += delays[pos]
            if delay > check.limit:
                return False
            union += positions
            self.maxflows += 1
            required = check.required_bps
            if max_flow_ids(view, s, t, union, required) >= required:
                return True
            if count >= self.params.max_alternates:
                return False
        return False

    def _flow_can_suffice(
        self,
        view: GraphIndex,
        removed: List[int],
        s: int,
        dist: List[float],
        check: _Check,
    ) -> bool:
        """False when even every link an accepted alternate could use
        carries less than the required capacity (the flow guard)."""
        indptr, heads, delays = self.csr.indptr, self.csr.heads, self.csr.delays
        h = view.delays_to(check.t)[0]
        bound = check.limit * (1.0 + _GUARD_SLACK)
        feasible = [
            pos
            for u, du in enumerate(dist)
            if du != _INF
            for pos in range(indptr[u], indptr[u + 1])
            if du + delays[pos] + h[heads[pos]] <= bound and pos not in removed
        ]
        self.maxflows += 1
        enough = check.required_bps * (1.0 - _GUARD_SLACK)
        return max_flow_ids(view, s, check.t, feasible, enough) >= enough

    def values(self, shortest_paths: Dict[Pair, IdPath]) -> List[float]:
        """APA of each pair, given its shortest path, in the order given."""
        index = self.index
        delays, capacities = self.csr.delays, self.csr.capacities
        n_links: List[int] = []
        # Physical link -> source -> the checks whose path crosses it.
        by_link: Dict[Tuple[int, int], Dict[int, List[_Check]]] = {}
        for number, ((src, dst), ids) in enumerate(shortest_paths.items()):
            positions = [index.edge_position(a, b) for a, b in zip(ids, ids[1:])]
            delay = 0.0
            for pos in positions:
                delay += delays[pos]
            check = _Check(
                number,
                index.node_id(dst),
                delay * self.params.stretch_limit + 1e-12,
                min(capacities[pos] for pos in positions),
            )
            n_links.append(len(positions))
            s = index.node_id(src)
            for a, b in zip(ids, ids[1:]):
                link = (a, b) if a < b else (b, a)
                by_link.setdefault(link, {}).setdefault(s, []).append(check)
        routable = [0] * len(n_links)
        for (a, b), sources in by_link.items():
            name_a, name_b = index.node_name(a), index.node_name(b)
            removed = index.edge_positions([(name_a, name_b), (name_b, name_a)])
            view = index.without_edges(removed)
            for s, checks in sources.items():
                dist, parent, _ = view.dijkstra_ids(s)
                for check in checks:
                    if self.routable_around(
                        view, removed, s, dist, parent, check
                    ):
                        routable[check.number] += 1
        return [count / links for count, links in zip(routable, n_links)]


def _apa(
    index: GraphIndex,
    shortest_paths: Dict[Pair, IdPath],
    params: ApaParameters,
) -> Dict[Pair, float]:
    apa = _Apa(index, params)
    values = apa.values(shortest_paths)
    rec = recorder()
    if rec.enabled:
        rec.counter("apa.checks", apa.checks)
        rec.counter("apa.yen_checks", apa.yen_checks)
        rec.counter("apa.maxflows", apa.maxflows)
    return dict(zip(shortest_paths, values))


def apa_all_pairs(
    network: Network, params: ApaParameters = ApaParameters()
) -> Dict[Pair, float]:
    """APA for every connected ordered PoP pair.

    Inherently quadratic (the paper's Figure 1 wants the full APA CDF);
    only ever run on zoo-scale networks.
    """
    index = graph_index(network)
    return _apa(index, index.all_pairs_shortest_ids(network.node_names), params)


def apa_cdf(apa_values: Dict[Pair, float]) -> npt.NDArray[np.float64]:
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
    with recorder().span("llpd"):
        values = apa_all_pairs(network, params)
    if not values:
        raise ValueError(f"network {network.name!r} has no connected pairs")
    return llpd_from_apa(values, params.llpd_threshold)


def llpd_from_apa(
    apa_values: Dict[Pair, float],
    threshold: float = ApaParameters.llpd_threshold,
) -> float:
    """LLPD computed from precomputed APA values (avoids recomputation)."""
    if not apa_values:
        raise ValueError("no APA values")
    good = sum(1 for value in apa_values.values() if value >= threshold)
    return good / len(apa_values)
