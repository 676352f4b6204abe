"""Replay rate samples through a placement and measure real queueing.

The model is the same fluid model the paper's controller assumes: time
advances in the controller's 100 ms reporting intervals
(:data:`~repro.core.multiplexing.INTERVAL_S`); within an interval each
aggregate offers its sampled rate, split across its paths by the
placement's fractions; each directed link drains at capacity and carries
excess bits over to the next interval as queue.  Queueing *delay* on a
link is queue depth divided by capacity.

This is deliberately the controller's own model — the point is to verify
the control loop end to end: a placement that passed the multiplexing
checks must, when the very samples it was checked against are replayed,
stay within the queue budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.multiplexing import INTERVAL_S, MAX_QUEUE_S
from repro.net.paths import path_links
from repro.routing.base import Placement

Pair = Tuple[str, str]


@dataclass
class ReplayResult:
    """Outcome of replaying a trace window through a placement."""

    #: Worst transient queueing delay (seconds) per directed link.
    per_link: Dict[Tuple[str, str], float]

    @property
    def max_queue_delay_s(self) -> float:
        return max(self.per_link.values(), default=0.0)

    def links_over_budget(self) -> List[Tuple[str, str]]:
        """Links whose queue exceeded :data:`MAX_QUEUE_S`."""
        return [key for key, delay in self.per_link.items() if delay > MAX_QUEUE_S]


def replay_placement(
    placement: Placement,
    samples_bps: Mapping[Pair, np.ndarray],
) -> ReplayResult:
    """Replay per-aggregate rate samples through a placement.

    ``samples_bps`` maps each aggregate's (src, dst) pair to its rate
    samples; all arrays must share a length.  Aggregates without samples
    are replayed at their mean demand.  Queues are unbounded: no bits are
    dropped.
    """
    lengths = {len(v) for v in samples_bps.values()}
    if len(lengths) > 1:
        raise ValueError(f"sample arrays must share a length, got {sorted(lengths)}")
    n_intervals = lengths.pop() if lengths else 1

    network = placement.network
    # Per-link offered rate per interval.
    offered: Dict[Tuple[str, str], np.ndarray] = {}
    for agg in placement.aggregates:
        samples = samples_bps.get(agg.pair)
        if samples is None:
            samples = np.full(n_intervals, agg.demand_bps)
        samples = np.asarray(samples, dtype=float)
        for alloc in placement.paths_for(agg):
            if alloc.fraction <= 1e-12:
                continue
            share = samples * alloc.fraction
            for key in path_links(alloc.path):
                if key in offered:
                    offered[key] = offered[key] + share
                else:
                    offered[key] = share.copy()

    per_link: Dict[Tuple[str, str], float] = {}
    for key, rates in offered.items():
        capacity = network.link(*key).capacity_bps
        queue_bits = 0.0
        max_queue = 0.0
        for delta in (rates - capacity) * INTERVAL_S:
            queue_bits = max(0.0, queue_bits + delta)
            max_queue = max(max_queue, queue_bits)
        per_link[key] = max_queue / capacity
    return ReplayResult(per_link=per_link)
