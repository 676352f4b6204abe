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
        node_names = list(routed.node_names)
        n_nodes = len(node_names)
        node_pos = {name: ni for ni, name in enumerate(node_names)}
        agg_index = np.arange(n_aggs, dtype=np.int64)
        link_index = np.arange(n_links, dtype=np.int64)
        demand_units = (
            np.fromiter(
                (agg.demand_bps for agg in aggregates),
                dtype=np.float64, count=n_aggs,
            )
            / capacity_unit
        )

        # Conservation per aggregate and node, in capacity units: build the
        # one-aggregate incidence pattern once (each link leaves its src row
        # with +1 and enters its dst row with -1), then tile with row/column
        # offsets per aggregate.
        src_pos = np.fromiter(
            (node_pos[link.src] for link in links),
            dtype=np.int64, count=n_links,
        )
        dst_pos = np.fromiter(
            (node_pos[link.dst] for link in links),
            dtype=np.int64, count=n_links,
        )
        base_rows = np.concatenate([src_pos, dst_pos])
        base_cols = np.concatenate([link_index, link_index])
        base_data = np.concatenate([np.ones(n_links), -np.ones(n_links)])
        cons_rows = (base_rows[None, :] + agg_index[:, None] * n_nodes).ravel()
        cons_cols = (base_cols[None, :] + agg_index[:, None] * n_links).ravel()
        cons_data = np.tile(base_data, n_aggs)
        cons_rhs = np.zeros(n_aggs * n_nodes)
        agg_src = np.fromiter(
            (node_pos[agg.src] for agg in aggregates),
            dtype=np.int64, count=n_aggs,
        )
        agg_dst = np.fromiter(
            (node_pos[agg.dst] for agg in aggregates),
            dtype=np.int64, count=n_aggs,
        )
        cons_rhs[agg_index * n_nodes + agg_src] = demand_units
        cons_rhs[agg_index * n_nodes + agg_dst] = -demand_units

        # Capacity with overload variables, as in Figure 12: per link one
        # capacity row (all aggregates' flows minus O_l * capacity) and one
        # O_l <= Omax row, interleaved.
        capacities = np.fromiter(
            (link.capacity_bps for link in links),
            dtype=np.float64, count=n_links,
        )
        cap_rows = n_aggs * n_nodes + np.concatenate([
            np.repeat(2 * link_index, n_aggs),
            2 * link_index,
            2 * link_index + 1,
            2 * link_index + 1,
        ])
        cap_cols = np.concatenate([
            (link_index[:, None] + agg_index[None, :] * n_links).ravel(),
            o_start + link_index,
            o_start + link_index,
            np.full(n_links, omax_col, dtype=np.int64),
        ])
        cap_data = np.concatenate([
            np.ones(n_aggs * n_links),
            (-capacities) / capacity_unit,
            np.ones(n_links),
            -np.ones(n_links),
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
                data=np.concatenate([cons_data, cap_data]),
                rows=np.concatenate([cons_rows, cap_rows]),
                cols=np.concatenate([cons_cols, cap_cols]),
                senses=np.concatenate([
                    np.full(n_aggs * n_nodes, SENSE_EQ, dtype=np.int8),
                    np.full(2 * n_links, SENSE_LE, dtype=np.int8),
                ]),
                rhs=np.concatenate([cons_rhs, np.zeros(2 * n_links)]),
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
