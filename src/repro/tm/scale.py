"""Scaling traffic matrices to a target network load (paper §3).

"We scale each traffic matrix so that the network is moderately loaded, but
not close to being overloaded.  The goal is that with optimal routing it is
still (just) possible to route the network without congestion if all traffic
increases by 30%.  This gives a network where, if we minimize maximum link
utilization, the min-cut has 23% headroom" (min-cut load 77%, growth factor
1.3 = 1/0.77).

The key primitive is the *maximum concurrent flow* value: the largest
multiplier λ such that λ·TM is routable without overloading any link.  We
compute it with a link-based multi-commodity flow LP whose commodities are
grouped by source node (V commodities over E links), which is exactly
equivalent to per-pair commodities for fractional flow but far smaller.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.lp import CompiledLP, InfeasibleError
from repro.lp.model import SENSE_EQ, SENSE_LE
from repro.net.flows import node_arc_coo
from repro.net.graph import Network
from repro.telemetry import recorder
from repro.tm.matrix import TrafficMatrix


def max_scale_factor(network: Network, tm: TrafficMatrix) -> float:
    """Largest λ such that λ·TM fits the network without congestion.

    Also interpretable as 1 / (min-cut load) of the matrix: a return value
    of 1.3 means the busiest cut is 77% loaded under the most permissive
    routing.
    """
    lam, _, _ = max_scale_flows(network, tm, want_flows=False)
    return lam


def max_scale_flows(
    network: Network, tm: TrafficMatrix, want_flows: bool = True
):
    """Max concurrent-flow scale λ, the achieving per-source flows and
    the capacity rows' link lengths: ``(lam, flows, lengths)``.

    The flows route λ·TM within capacity, so dividing them by λ routes TM
    itself with maximum link utilization 1/λ — which is the *optimal*
    minimum-max-utilization (MinMax) flow.  Returned as
    ``{source: {(u, v): bits_per_second_at_scale_1}}`` (already divided by
    λ); ``None`` when ``want_flows`` is False.  ``lengths`` is
    ``max(-y, 0)`` over the capacity rows' duals ``y``, one per link in
    ``network.links()`` order: with them
    :func:`~repro.net.flows.concurrent_flow_bound` certifies λ from above.
    """
    aggregates = tm.aggregates()
    if not aggregates:
        raise ValueError("traffic matrix has no demand")

    # Normalize units before building the LP: raw bits/s mixes 1e6-scale
    # demands with 1e10-scale capacities, which provokes spurious
    # unbounded/infeasible results from the solver.  We express demands as
    # fractions of total demand and capacities in units of the mean link
    # capacity; lambda is rescaled on the way out.
    demand_total = sum(agg.demand_bps for agg in aggregates)
    links = list(network.links())
    capacity_unit = sum(link.capacity_bps for link in links) / len(links)

    sources = sorted({agg.src for agg in aggregates})
    demand_from: Dict[str, Dict[str, float]] = {src: {} for src in sources}
    for agg in aggregates:
        demand_from[agg.src][agg.dst] = (
            demand_from[agg.src].get(agg.dst, 0.0) + agg.demand_bps / demand_total
        )

    # Columns: lambda, then one flow per (source, link), source-major.
    # Rows: conservation per (source, node), source-major, then capacity
    # per link.  For commodity (source s) at node v,
    #   outflow - inflow = lambda * (total demand from s)   if v == s
    #   outflow - inflow = -lambda * demand(s, v)           otherwise.
    n_sources, n_links = len(sources), len(links)
    n_nodes = network.num_nodes
    node_pos = {name: ni for ni, name in enumerate(network.node_names)}
    lam_coef = np.zeros((n_sources, n_nodes))
    for si, src in enumerate(sources):
        for dst, demand in demand_from[src].items():
            lam_coef[si, node_pos[dst]] = demand
        lam_coef[si, node_pos[src]] = -sum(demand_from[src].values())
    n_cons = n_sources * n_nodes
    n_flows = n_sources * n_links
    with recorder().span("lp_assemble"):
        flow_data, flow_rows, flow_cols = node_arc_coo(
            network, n_sources, 1, n_cons + np.arange(n_links, dtype=np.int64)
        )
        model = CompiledLP.from_coo(
            n_variables=1 + n_flows,
            data=np.concatenate([flow_data, lam_coef.ravel()]),
            rows=np.concatenate([flow_rows, np.arange(n_cons, dtype=np.int64)]),
            cols=np.concatenate([flow_cols, np.zeros(n_cons, dtype=np.int64)]),
            senses=np.concatenate([
                np.full(n_cons, SENSE_EQ, dtype=np.int8),
                np.full(n_links, SENSE_LE, dtype=np.int8),
            ]),
            rhs=np.concatenate([
                np.zeros(n_cons),
                np.array([link.capacity_bps for link in links]) / capacity_unit,
            ]),
            c=np.concatenate([[-1.0], np.zeros(n_flows)]),
            lower=np.zeros(1 + n_flows),
            upper=np.full(1 + n_flows, np.inf),
        )
    try:
        solution = model.solve()
    except InfeasibleError as exc:  # pragma: no cover - cannot happen: λ=0 fits
        raise RuntimeError("max concurrent flow LP infeasible") from exc
    # lambda was computed in normalized units: undo the normalization.
    lam_value = float(solution.x[0]) * capacity_unit / demand_total
    lengths = np.maximum(-solution.row_dual[-n_links:], 0.0)
    if not want_flows:
        return lam_value, None, lengths
    if lam_value <= 0:
        return lam_value, {src: {} for src in sources}, lengths
    # Flow variables are in capacity units and route λ·TM; de-normalize
    # and divide by λ to obtain the optimal MinMax flow for TM itself.
    keys = [link.key for link in links]
    flows: Dict[str, Dict[Tuple[str, str], float]] = {}
    for src, raw in zip(sources, solution.x[1:].reshape(n_sources, n_links)):
        kept = np.flatnonzero(raw > 1e-9)
        flows[src] = dict(zip(
            [keys[li] for li in kept.tolist()],
            (raw[kept] * capacity_unit / lam_value).tolist(),
        ))
    return lam_value, flows, lengths


def scale_to_growth_headroom(
    network: Network, tm: TrafficMatrix, growth_factor: float = 1.3
) -> TrafficMatrix:
    """Scale so traffic could still grow by ``growth_factor`` and fit.

    ``growth_factor=1.3`` reproduces the paper's default load (min-cut at
    77%); its Figure 8 uses 1.65 (min-cut at 60%), and its Figure 17 sweeps
    the equivalent of min-cut loads from 60% to 90%.
    """
    return scaled_for_growth(tm, max_scale_factor(network, tm), growth_factor)


def scaled_for_growth(
    tm: TrafficMatrix, lam: float, growth_factor: float
) -> TrafficMatrix:
    """:func:`scale_to_growth_headroom` given ``tm``'s already computed
    :func:`max_scale_factor` ``lam`` — one LP per matrix serves any
    number of growth factors."""
    if growth_factor < 1.0:
        raise ValueError(
            f"growth factor below 1 would overload the network: {growth_factor}"
        )
    if lam <= 0:
        raise ValueError("traffic matrix is unroutable at any positive scale")
    return tm.scaled(lam / growth_factor)
