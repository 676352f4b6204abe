"""The locality extension to the gravity model (paper §3).

"The original gravity model dictates the ingress and egress traffic volumes
at each PoP; our extension moves load among aggregates that span different
distances according to the locality parameter.  For values greater than zero
we redistribute some traffic from longer-distance flows to shorter-distance
ones.  Specifically, a locality parameter of ℓ allows short-distance flows
to increase by ℓ times their original demand.  [...] We express these
constraints in a simple linear program whose solution yields per-aggregate
traffic volumes."

Our linear program:

    minimize    sum_a  v'_a * dist_a
    subject to  sum_{a from i} v'_a  =  original ingress of i   (for all i)
                sum_{a to j}   v'_a  =  original egress of j    (for all j)
                0 <= v'_a <= (1 + ell) * v_a                    (for all a)

With ``ell = 0`` the only feasible point is the original matrix (each demand
is capped at its original value while marginals must be preserved), so the
transformation degrades gracefully.  For ``ell > 0`` volume migrates onto
short-distance aggregates — each may grow by at most ``ell`` times its
original demand — and the distance-weighted objective drains the longest
aggregates first, exactly the "moves load among aggregates that span
different distances" behaviour the paper describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lp import CompiledLP
from repro.lp.model import SENSE_EQ
from repro.net.graph import Network
from repro.net.paths import shortest_path_delays
from repro.telemetry import recorder
from repro.tm.matrix import TrafficMatrix


def aggregate_distances_s(network: Network, tm: TrafficMatrix) -> Dict[Tuple[str, str], float]:
    """Shortest-path delay for each pair in the matrix (the LP's distances)."""
    distances: Dict[Tuple[str, str], float] = {}
    by_source: Dict[str, Dict[str, float]] = {}
    for (src, dst) in tm.pairs:
        if src not in by_source:
            by_source[src] = shortest_path_delays(network, src)
        if dst not in by_source[src]:
            raise ValueError(f"no path {src} -> {dst}; network must be connected")
        distances[(src, dst)] = by_source[src][dst]
    return distances


def apply_locality(
    network: Network,
    tm: TrafficMatrix,
    locality: float,
    distances: Optional[Dict[Tuple[str, str], float]] = None,
) -> TrafficMatrix:
    """Redistribute volume toward short-distance aggregates.

    ``locality`` is the paper's ℓ parameter; 0 returns an equivalent matrix,
    1 is the paper's default ("a locality of one suffices to add significant
    locality"), 2 is the top of its Figure 18 sweep.

    ``distances`` optionally supplies precomputed per-pair shortest-path
    delays (it must cover every pair in ``tm``); region-aggregated sweeps
    on ingest-scale graphs reuse one delay sweep per gateway instead of
    recomputing it for every locality value.
    """
    if locality < 0:
        raise ValueError(f"locality must be non-negative, got {locality}")
    if locality == 0:
        return tm

    if distances is None:
        distances = aggregate_distances_s(network, tm)
    else:
        missing = [pair for pair in tm.pairs if pair not in distances]
        if missing:
            raise ValueError(
                f"precomputed distances missing {len(missing)} pair(s), "
                f"first {missing[0][0]} -> {missing[0][1]}"
            )
    pairs = tm.pairs
    # Normalize demands to fractions of the total and distances to units
    # of the mean: raw bits/s coefficients provoke numerical failures in
    # the solver (cf. the same normalization in repro.tm.scale).
    demand_unit = tm.total_demand_bps
    if demand_unit <= 0:
        return tm
    distance_unit = sum(distances.values()) / len(distances)
    if distance_unit <= 0:
        distance_unit = 1.0

    # One column per pair; rows: per node in sorted order, its ingress
    # then its egress row.  Marginals are summed in pair order, as
    # TrafficMatrix.ingress_bps / egress_bps do.
    rank = {node: k for k, node in enumerate(sorted(
        {node for pair in pairs for node in pair}
    ))}
    demand = [tm.demand(*pair) for pair in pairs]
    marginal = [0.0] * (2 * len(rank))
    rows: List[int] = []
    for (src, dst), volume in zip(pairs, demand):
        for row in (2 * rank[src], 2 * rank[dst] + 1):
            rows.append(row)
            marginal[row] += volume
    with recorder().span("lp_assemble"):
        model = CompiledLP.from_coo(
            n_variables=len(pairs),
            data=np.ones(2 * len(pairs)),
            rows=np.array(rows, dtype=np.int64),
            cols=np.repeat(np.arange(len(pairs), dtype=np.int64), 2),
            senses=np.full(len(marginal), SENSE_EQ, dtype=np.int8),
            rhs=np.array(marginal) / demand_unit,
            c=np.array([distances[pair] for pair in pairs]) / distance_unit,
            lower=np.zeros(len(pairs)),
            upper=(1.0 + locality) * (np.array(demand) / demand_unit),
        )
    values = model.solve().x.tolist()
    new_demands = {
        pair: max(0.0, value * demand_unit)
        for pair, value in zip(pairs, values)
    }
    return TrafficMatrix(new_demands)
