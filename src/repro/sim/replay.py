"""Replay rate samples through a placement and measure real queueing.

The model is the same fluid model the paper's controller assumes: time
advances in fixed intervals (100 ms by default); within an interval each
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

from repro.net.paths import path_links
from repro.routing.base import Placement

Pair = Tuple[str, str]


@dataclass
class LinkQueueStats:
    """Queueing behaviour of one directed link over the replay."""

    max_queue_bits: float
    max_queue_delay_s: float
    intervals_with_queue: int
    mean_utilization: float


@dataclass
class ReplayResult:
    """Outcome of replaying a trace window through a placement."""

    per_link: Dict[Tuple[str, str], LinkQueueStats]
    interval_s: float

    @property
    def max_queue_delay_s(self) -> float:
        if not self.per_link:
            return 0.0
        return max(stats.max_queue_delay_s for stats in self.per_link.values())

    def links_exceeding(self, max_queue_s: float) -> List[Tuple[str, str]]:
        return [
            key
            for key, stats in self.per_link.items()
            if stats.max_queue_delay_s > max_queue_s
        ]


def replay_placement(
    placement: Placement,
    samples_bps: Mapping[Pair, np.ndarray],
    interval_s: float = 0.1,
) -> ReplayResult:
    """Replay per-aggregate rate samples through a placement.

    ``samples_bps`` maps each aggregate's (src, dst) pair to its rate
    samples; all arrays must share a length.  Aggregates without samples
    are replayed at their mean demand.  Queues are unbounded: no bits are
    dropped.
    """
    if interval_s <= 0:
        raise ValueError(f"interval must be positive, got {interval_s}")
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

    per_link: Dict[Tuple[str, str], LinkQueueStats] = {}
    for key, rates in offered.items():
        capacity = network.link(*key).capacity_bps
        queue_bits = 0.0
        max_queue = 0.0
        queued_intervals = 0
        excess = (rates - capacity) * interval_s
        for delta in excess:
            queue_bits = max(0.0, queue_bits + delta)
            if queue_bits > 0:
                queued_intervals += 1
            max_queue = max(max_queue, queue_bits)
        per_link[key] = LinkQueueStats(
            max_queue_bits=max_queue,
            max_queue_delay_s=max_queue / capacity,
            intervals_with_queue=queued_intervals,
            mean_utilization=float(rates.mean() / capacity),
        )
    return ReplayResult(per_link=per_link, interval_s=interval_s)
