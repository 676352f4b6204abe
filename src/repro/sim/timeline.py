"""Minute-by-minute simulation of the centralized control loop.

The paper's Figure 11 system runs continuously: every minute the
controller ingests the last minute's measurements, predicts the next
minute (Algorithm 1), optimizes a placement with the multiplexing checks,
and installs it — after which the *next* minute's real traffic flows over
it.  This module simulates exactly that timeline and scores each installed
placement against the traffic that actually arrived, which is the honest
test of the whole prediction-plus-headroom machinery.  The controller
runs the paper's one LDR configuration (:mod:`repro.core.ldr`), and each
minute's replay counts the links over the controller's own 10 ms queue
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.ldr import AggregateTraffic, LdrController
from repro.net.graph import Network
from repro.routing.base import link_loads
from repro.sim.replay import replay_placement

Pair = Tuple[str, str]

#: Trace samples per minute: the traces are sampled every 100 ms.
SAMPLES_PER_MINUTE = 600


@dataclass
class MinuteReport:
    """How the placement installed for one minute fared against reality."""

    minute: int
    converged: bool
    ldr_rounds: int
    #: Worst transient queue when the minute's actual samples replay.
    max_queue_delay_s: float
    links_over_budget: int
    #: Placement stretch (weighted by the controller's demand estimates).
    latency_stretch: float
    #: Max utilization under the minute's actual mean rates.
    actual_max_utilization: float


class TimelineSimulation:
    """Drive an LDR controller over a multi-minute trace set."""

    def __init__(
        self,
        network: Network,
        traces_100ms_bps: Mapping[Pair, np.ndarray],
    ) -> None:
        if not traces_100ms_bps:
            raise ValueError("no traces")
        lengths = {len(v) for v in traces_100ms_bps.values()}
        if len(lengths) != 1:
            raise ValueError("traces must share a length")
        self.network = network
        self.traces = {
            pair: np.asarray(v, dtype=float)
            for pair, v in traces_100ms_bps.items()
        }
        self.total_minutes = lengths.pop() // SAMPLES_PER_MINUTE
        if self.total_minutes < 2:
            raise ValueError("need at least two minutes of trace")
        self.controller = LdrController(network)

    def _window(self, pair: Pair, minute: int) -> np.ndarray:
        spm = SAMPLES_PER_MINUTE
        return self.traces[pair][minute * spm : (minute + 1) * spm]

    def run(self, n_minutes: Optional[int] = None) -> List[MinuteReport]:
        """Simulate the loop: measure minute m, route, face minute m+1."""
        last = self.total_minutes - 1
        n_minutes = min(n_minutes, last) if n_minutes is not None else last
        reports: List[MinuteReport] = []
        for minute in range(n_minutes):
            traffic = [
                AggregateTraffic(
                    src,
                    dst,
                    self._window((src, dst), minute),
                    [float(self._window((src, dst), minute).mean())],
                )
                for (src, dst) in self.traces
            ]
            result = self.controller.route(traffic)

            next_samples = {
                pair: self._window(pair, minute + 1) for pair in self.traces
            }
            replay = replay_placement(result.placement, next_samples)
            actual_means = {
                pair: float(samples.mean())
                for pair, samples in next_samples.items()
            }
            utilization = _actual_max_utilization(
                result.placement, actual_means
            )
            reports.append(
                MinuteReport(
                    minute=minute,
                    converged=result.converged,
                    ldr_rounds=result.rounds,
                    max_queue_delay_s=replay.max_queue_delay_s,
                    links_over_budget=len(replay.links_over_budget()),
                    latency_stretch=result.placement.total_latency_stretch(),
                    actual_max_utilization=utilization,
                )
            )
        return reports


def _actual_max_utilization(placement, actual_means_bps: Dict[Pair, float]) -> float:
    """Max link utilization if each aggregate ran at its actual mean."""
    loads = link_loads(
        (alloc.path, actual_means_bps.get(agg.pair, agg.demand_bps) * alloc.fraction)
        for agg in placement.aggregates for alloc in placement.paths_for(agg)
    )
    network = placement.network
    if not loads:
        return 0.0
    return max(
        load / network.link(*key).capacity_bps for key, load in loads.items()
    )
