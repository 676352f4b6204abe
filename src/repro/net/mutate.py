"""Topology mutation: failure variants and the network growth study.

A scenario's link and node failures are decided here once:
:func:`severed_pair` tells whether they leave every demand pair connected
and :func:`drops_every_demand` whether node failures leave any demand at
all (the scenario generator's screen and ``ScenarioSpec.apply`` both ask
them), and :func:`without_failures` builds the surviving topology in one
copy.

The paper (§8, Figure 20) grows hard-to-route networks by repeatedly
adding the single candidate link that yields the greatest LLPD increase,
until the link count has grown by 5%.  This module provides the candidate
enumeration and the greedy growth loop; the LLPD evaluation itself lives
in :mod:`repro.core.metrics`.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.net.geo import great_circle_km, link_delay_s
from repro.net.graph import Network
from repro.net.units import Gbps
from repro.net.zoo import _capacity_for
from repro.tm.matrix import TrafficMatrix


class ScenarioInfeasible(Exception):
    """A topology perturbation severed a demand pair.

    Removing a bridge link (or an articulation node) can leave a demand
    pair with no path at all; every LP formulation downstream would then
    die deep inside the solver with an opaque error.  Perturbation code
    raises this typed error instead, so scenario generation can skip the
    variant and count it rather than crash mid-fleet.
    """


def without_failures(
    network: Network,
    failed_links: Iterable[Tuple[str, str]] = (),
    failed_nodes: Iterable[str] = (),
    name: Optional[str] = None,
) -> Network:
    """One copy of ``network`` without the failed links and nodes, named
    ``name`` (default: the original name).

    A failed link loses both directions; a failed node, every link
    touching it.  The failures apply as one set, so their order does not
    matter (two link failures commute), and survivors keep their
    insertion order, so CSR rows, path tie-breaks and signatures do not
    move.  Raises :class:`ScenarioInfeasible` for a link or node the
    topology does not have (or one failed twice): a spec/topology
    mismatch, not a solver problem.
    """
    cut: Set[Tuple[str, str]] = set()
    for a, b in failed_links:
        if (a, b) in cut or not (network.has_link(a, b) or network.has_link(b, a)):
            raise ScenarioInfeasible(
                f"{network.name}: no physical link {a} -- {b} to fail"
            )
        cut.update(((a, b), (b, a)))
    down: Set[str] = set()
    for node in failed_nodes:
        if node in down or not network.has_node(node):
            raise ScenarioInfeasible(f"{network.name}: no node {node!r} to fail")
        down.add(node)
    clone = Network(network.name if name is None else name)
    for node_name in network.node_names:
        if node_name not in down:
            clone.add_node(network.node(node_name))
    for link in network.links():
        if link.src not in down and link.dst not in down and link.key not in cut:
            clone.add_link(link)
    return clone


def severed_pair(
    network: Network,
    pairs: Iterable[Tuple[str, str]],
    failed_links: Iterable[Tuple[str, str]] = (),
    failed_nodes: Iterable[str] = (),
) -> Optional[Tuple[str, str]]:
    """The first of ``pairs`` (in order) the failures disconnect, or ``None``.

    One breadth-first labelling of ``network`` minus the failures (a
    failed link is cut both ways), in place: no copy.  A pair touching a
    failed node is a dropped demand, not a severed one; a pair with an
    endpoint the network lacks is severed.
    """
    cut = {(a, b) for a, b in failed_links}
    cut |= {(b, a) for a, b in cut}
    down = set(failed_nodes)
    labels: Dict[str, str] = {}  # node -> its component's first node
    for start in network.node_names:
        if start in down or start in labels:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in network.successors(node):
                if neighbor in down or neighbor in labels:
                    continue
                if (node, neighbor) not in cut:
                    labels[neighbor] = start
                    queue.append(neighbor)
    for src, dst in pairs:
        if src in down or dst in down:
            continue
        if src not in labels or labels[src] != labels.get(dst):
            return (src, dst)
    return None


def drops_every_demand(
    pairs: Iterable[Tuple[str, str]], failed_nodes: Iterable[str]
) -> bool:
    """True when node failures touch every one of ``pairs``: the variant
    would route nothing, so it is no variant.  Without failed nodes no
    demand drops."""
    down = set(failed_nodes)
    return bool(down) and not any(down.isdisjoint(pair) for pair in pairs)


def demand_pairs(
    matrices: Iterable[TrafficMatrix], every_pair: bool = False
) -> List[Tuple[str, str]]:
    """The pairs carrying demand in any matrix, each once, first-seen order.

    ``every_pair`` keeps zero-demand pairs too: a locality reshape may
    move volume onto them, so they need a path as well.
    """
    seen: Dict[Tuple[str, str], None] = {}
    for tm in matrices:
        for pair, demand in tm.items():
            if every_pair or demand > 0:
                seen.setdefault(pair)
    return list(seen)


def candidate_links(
    network: Network, max_candidates: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[Tuple[str, str]]:
    """Unordered node pairs with no existing physical link.

    When ``max_candidates`` is given, the geographically shortest candidates
    are preferred (short links are both the cheapest to build and the ones
    most likely to add *low-latency* diversity); ties are broken randomly
    via ``rng`` to avoid systematic bias.
    """
    pairs = [
        (a, b)
        for a, b in itertools.combinations(network.node_names, 2)
        if not network.has_link(a, b) and not network.has_link(b, a)
    ]
    if max_candidates is None or len(pairs) <= max_candidates:
        return pairs
    rng = rng or np.random.default_rng(0)
    order = rng.permutation(len(pairs))
    pairs = [pairs[i] for i in order]
    pairs.sort(key=lambda pair: _pair_distance_km(network, *pair))
    return pairs[:max_candidates]


def _pair_distance_km(network: Network, a: str, b: str) -> float:
    na, nb = network.node(a), network.node(b)
    return great_circle_km(na.lat_deg, na.lon_deg, nb.lat_deg, nb.lon_deg)


def with_added_link(
    network: Network, a: str, b: str, capacity_bps: Optional[float] = None
) -> Network:
    """A copy of the network with one new duplex link between ``a``/``b``.

    Capacity defaults to the class a link of that length would get in the
    zoo generator; delay comes from geography like every other link.
    """
    clone = network.copy()
    na, nb = network.node(a), network.node(b)
    delay = link_delay_s(na.lat_deg, na.lon_deg, nb.lat_deg, nb.lon_deg)
    if capacity_bps is None:
        distance = _pair_distance_km(network, a, b)
        capacity_bps = _capacity_for(distance, np.random.default_rng(0))
        capacity_bps = max(capacity_bps, Gbps(40))
    clone.add_duplex_link(a, b, capacity_bps, delay)
    return clone


def grow_by_ldr_objective(
    network: Network,
    forecast_tm: TrafficMatrix,
    growth_fraction: float = 0.05,
    max_candidates: int = 20,
) -> Tuple[Network, List[Tuple[str, str]]]:
    """Greedy growth scored by the latency-optimal objective (paper §8).

    "Where such a routing scheme is used, if forecast traffic matrices are
    also available, then the optimized value of LDR's objective in Figure
    12 provides a better metric to evaluate the impact of the adding of
    new links on latency" — LLPD can even *drop* when a useful but
    non-redundant link is added (the paper's transatlantic example), while
    the realized flow delay always tells the truth.

    Each candidate link is scored by the total flow-weighted delay of the
    latency-optimal placement of ``forecast_tm`` on the grown topology;
    the candidate with the lowest delay wins each round.
    """
    from repro.routing.optimal import LatencyOptimalRouting

    if not 0.0 < growth_fraction <= 1.0:
        raise ValueError(f"growth fraction must be in (0, 1], got {growth_fraction}")
    rng = np.random.default_rng(0)
    n_physical = len(network.duplex_pairs())
    n_to_add = max(1, int(round(growth_fraction * n_physical)))
    current = network
    added: List[Tuple[str, str]] = []

    def realized_delay(net: Network) -> float:
        placement = LatencyOptimalRouting().place(net, forecast_tm)
        return placement.total_weighted_delay_s()

    for _ in range(n_to_add):
        candidates = candidate_links(current, max_candidates, rng)
        if not candidates:
            break
        best_pair: Optional[Tuple[str, str]] = None
        best_delay = realized_delay(current)
        for a, b in candidates:
            trial = with_added_link(current, a, b)
            delay = realized_delay(trial)
            if delay < best_delay - 1e-12:
                best_pair = (a, b)
                best_delay = delay
        if best_pair is None:
            break
        current = with_added_link(current, *best_pair)
        added.append(best_pair)
    return current, added


def grow_by_llpd(
    network: Network,
    score: Callable[[Network], float],
    growth_fraction: float = 0.05,
    max_candidates: int = 40,
) -> Tuple[Network, List[Tuple[str, str]]]:
    """Greedily add links maximizing ``score`` until links grow by 5%.

    ``score`` is typically :func:`repro.core.metrics.llpd`.  Returns the
    grown network and the list of added (a, b) pairs.  This reproduces the
    paper's growth procedure: "Of all the links to be possibly added, we add
    the one that gives the greatest increase in LLPD.  We then repeat this
    process until the number of links has increased by 5%."
    """
    if not 0.0 < growth_fraction <= 1.0:
        raise ValueError(f"growth fraction must be in (0, 1], got {growth_fraction}")
    rng = np.random.default_rng(0)
    n_physical = len(network.duplex_pairs())
    n_to_add = max(1, int(round(growth_fraction * n_physical)))
    current = network
    added: List[Tuple[str, str]] = []
    for _ in range(n_to_add):
        candidates = candidate_links(current, max_candidates, rng)
        if not candidates:
            break
        best_pair: Optional[Tuple[str, str]] = None
        best_score = score(current)
        for a, b in candidates:
            trial = with_added_link(current, a, b)
            trial_score = score(trial)
            if best_pair is None or trial_score > best_score:
                best_pair = (a, b)
                best_score = trial_score
        if best_pair is None:
            break
        current = with_added_link(current, *best_pair)
        added.append(best_pair)
    return current, added
