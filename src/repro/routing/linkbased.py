"""Link-based (node-arc) formulation of the latency optimization.

The paper contrasts its path-based iterative approach with "a
multi-commodity flow problem, with one commodity per aggregate, in the
spirit of Bertsekas et al.  However, the size of this optimization model
scales with the product of number of aggregates and number of links, hence
this approach may quickly become impractical" — and its Figure 15 measures
it to be about two orders of magnitude slower.  This module is that
baseline: same objective layers as Figure 12, but with per-aggregate,
per-link flow variables instead of path-fraction variables.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.lp import CompiledLP
from repro.lp.model import SENSE_EQ, SENSE_LE
from repro.net.flows import node_arc_coo
from repro.net.graph import Network
from repro.net.paths import shortest_path_delays
from repro.routing.base import Placement, RoutingScheme, normalize_allocations
from repro.routing.decompose import decompose_flow
from repro.routing.pathlp import (
    M1_TIEBREAK,
    M2_MAX_OVERLOAD,
    M3_TOTAL_OVERLOAD,
)
from repro.telemetry import recorder
from repro.tm.matrix import Aggregate, TrafficMatrix


class LinkBasedOptimalRouting(RoutingScheme):
    """Latency-optimal placement via one monolithic node-arc LP."""

    name = "LinkBasedOptimal"

    def __init__(self, headroom: float = 0.0) -> None:
        super().__init__(headroom)

    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        routed = self.routed(network)
        aggregates = tm.aggregates()
        if not aggregates:
            raise ValueError("traffic matrix has no aggregates to route")
        links = list(routed.links())
        capacity_unit = sum(link.capacity_bps for link in links) / len(links)
        total_flows = sum(agg.n_flows for agg in aggregates)

        shortest: Dict[str, Dict[str, float]] = {}
        for agg in aggregates:
            if agg.src not in shortest:
                shortest[agg.src] = shortest_path_delays(routed, agg.src)
        delay_unit = (
            sum(
                agg.n_flows * shortest[agg.src][agg.dst] for agg in aggregates
            )
            / total_flows
        )
        if delay_unit <= 0:
            delay_unit = 1e-3

        # Column layout: flow variables aggregate-major (``ai * L + li``),
        # then Omax, then one O_l per link.  Row layout: conservation rows
        # aggregate-major, then the capacity block.  The order reaches the
        # solver, so it is pinned (tests/test_regression_pins.py).
        n_aggs = len(aggregates)
        n_links = len(links)
        omax_col = n_aggs * n_links
        o_start = omax_col + 1
        n_variables = o_start + n_links
        n_nodes = routed.num_nodes
        node_pos = {name: ni for ni, name in enumerate(routed.node_names)}
        link_index = np.arange(n_links, dtype=np.int64)
        demand_units = (
            np.fromiter(
                (agg.demand_bps for agg in aggregates),
                dtype=np.float64, count=n_aggs,
            )
            / capacity_unit
        )

        # Conservation per aggregate and node, in capacity units, and each
        # link's capacity row (all aggregates' flows minus O_l * capacity)
        # followed by its O_l <= Omax row, as in Figure 12.
        flow_data, flow_rows, flow_cols = node_arc_coo(
            routed, n_aggs, 0, n_aggs * n_nodes + 2 * link_index
        )
        cons_rhs = np.zeros((n_aggs, n_nodes))
        for ai, agg in enumerate(aggregates):
            cons_rhs[ai, node_pos[agg.src]] = demand_units[ai]
            cons_rhs[ai, node_pos[agg.dst]] = -demand_units[ai]

        capacities = np.fromiter(
            (link.capacity_bps for link in links),
            dtype=np.float64, count=n_links,
        )
        cap_rows = n_aggs * n_nodes + np.concatenate([
            2 * link_index, 2 * link_index + 1, 2 * link_index + 1,
        ])
        cap_cols = np.concatenate([
            o_start + link_index,
            o_start + link_index,
            np.full(n_links, omax_col, dtype=np.int64),
        ])
        cap_data = np.concatenate([
            (-capacities) / capacity_unit, np.ones(n_links), -np.ones(n_links),
        ])

        # Objective: delay (with the RTT tie-break), then overload layers.
        # sum_l f_al * d_l / B_a  ==  flow-fraction-weighted path delay.
        # The elementwise operation order matches the scalar loop exactly.
        weight = (
            np.fromiter(
                (agg.n_flows for agg in aggregates),
                dtype=np.float64, count=n_aggs,
            )
            / total_flows
        )
        shortest_delay = np.fromiter(
            (max(shortest[agg.src][agg.dst], 1e-9) for agg in aggregates),
            dtype=np.float64, count=n_aggs,
        )
        delay = (
            np.fromiter(
                (link.delay_s for link in links),
                dtype=np.float64, count=n_links,
            )
            / delay_unit
        )
        coefficient = weight[:, None] * delay[None, :]
        coefficient = coefficient / demand_units[:, None]
        coefficient = coefficient * (
            1.0 + M1_TIEBREAK * (delay_unit / shortest_delay)
        )[:, None]
        c = np.concatenate([
            coefficient.ravel(),
            np.array([M2_MAX_OVERLOAD]),
            np.full(n_links, M3_TOTAL_OVERLOAD),
        ])

        with recorder().span("lp_assemble"):
            model = CompiledLP.from_coo(
                n_variables=n_variables,
                data=np.concatenate([flow_data, cap_data]),
                rows=np.concatenate([flow_rows, cap_rows]),
                cols=np.concatenate([flow_cols, cap_cols]),
                senses=np.concatenate([
                    np.full(n_aggs * n_nodes, SENSE_EQ, dtype=np.int8),
                    np.full(2 * n_links, SENSE_LE, dtype=np.int8),
                ]),
                rhs=np.concatenate([cons_rhs.ravel(), np.zeros(2 * n_links)]),
                c=c,
                lower=np.concatenate([
                    np.zeros(n_aggs * n_links), np.ones(1 + n_links)
                ]),
                upper=np.full(n_variables, np.inf),
            )
        solution = model.solve()
        values = solution.x

        raw: Dict[Aggregate, List[Tuple[tuple, float]]] = {}
        for ai, agg in enumerate(aggregates):
            flow_values = (
                values[ai * n_links:(ai + 1) * n_links]
                * capacity_unit
            ).tolist()
            link_flow = {
                link.key: flow_values[li] for li, link in enumerate(links)
            }
            splits = decompose_flow(
                routed, agg.src, agg.dst, link_flow, agg.demand_bps
            )
            if not splits:
                raise RuntimeError(
                    f"decomposition failed for {agg.src}->{agg.dst}"
                )
            raw[agg] = splits
        return Placement(network, normalize_allocations(raw))
