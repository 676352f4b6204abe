"""The paper's per-(network, matrix) metrics record and its reduction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass
class SchemeOutcome:
    """Metrics of one scheme on one (network, traffic matrix) pair."""

    network_name: str
    llpd: float
    congested_fraction: float
    latency_stretch: float
    max_path_stretch: float
    max_utilization: float
    fits: bool
    #: Unique id of the workload entry this outcome came from.  Zoo names
    #: are not unique, so grouping keys on this, not ``network_name``;
    #: empty (hand-built outcomes) falls back to (name, llpd).
    network_id: str = ""


def per_network_quantiles(
    outcomes: Sequence[SchemeOutcome],
    metric: str,
    quantile: float,
) -> List[tuple]:
    """(llpd, quantile-of-metric) per network, sorted by LLPD.

    This is the shape of the paper's Figures 3 and 4: networks on the
    x-axis ordered by LLPD, a per-network quantile across traffic matrices
    on the y-axis.

    Outcomes are grouped by ``network_id`` (falling back to the
    (name, llpd) pair when unset), never by name alone: two zoo networks
    can share a name, and merging them would mislabel the merged point
    with the first one's LLPD.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    by_network: Dict[Tuple, List[SchemeOutcome]] = {}
    for outcome in outcomes:
        key = (
            ("id", outcome.network_id)
            if outcome.network_id
            else ("name-llpd", outcome.network_name, outcome.llpd)
        )
        by_network.setdefault(key, []).append(outcome)
    points = []
    for network_outcomes in by_network.values():
        values = [getattr(o, metric) for o in network_outcomes]
        points.append(
            (network_outcomes[0].llpd, float(np.quantile(values, quantile)))
        )
    points.sort()
    return points
