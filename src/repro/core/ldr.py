"""LDR: Low Delay Routing (paper §5).

The controller iterates through the paper's three phases (its Figure 11):

1. **optimize** — run the iterative latency-optimal LP (Figure 13) with the
   current per-aggregate demand estimates;
2. **appraise** — for every link of the proposed placement, check whether
   the aggregates placed on it statistically multiplex: peak filter, then
   the temporal-correlation test, then the FFT-convolution test
   (Figure 14);
3. **tweak** — when a link fails, *scale up the demand estimates of the
   aggregates crossing it* and re-optimize.  "Scaling up aggregates serves
   to add headroom, but only for those aggregates that don't multiplex
   well.  The alternative — scaling down the link speed — is less
   effective, as it prevents other less variable aggregates being chosen
   to use the link instead."

Demand estimates start from Algorithm 1 predictions over each aggregate's
measured minute means, so headroom against mean drift (the 10% hedge) and
headroom against burstiness (the multiplexing loop) compose.

The loop runs the paper's one configuration: at most :data:`MAX_ROUNDS`
rounds, a :data:`SCALE_UP` tweak per round, and the link check's fixed
budget, sampling interval and convolution levels
(:mod:`repro.core.multiplexing`).

The tweak loop re-optimizes with scaled demands over largely unchanged
path sets: ``warm_counts`` keeps the path-set growth warm across rounds,
so each extra round starts from the path counts the last one ended
with instead of re-growing from k=1.  Every LP is assembled afresh (see
:mod:`repro.routing.pathlp`); with few paths per solve that is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.multiplexing import LinkCheck, check_link_multiplexing
from repro.core.prediction import MeanRatePredictor
from repro.net.graph import Network
from repro.net.paths import KspCache, path_links
from repro.routing.base import Placement, normalize_allocations
from repro.routing.optimal import solve_iterative_latency
from repro.tm.matrix import TrafficMatrix

Pair = Tuple[str, str]

#: Bound on optimize/appraise/tweak rounds per routing cycle.
MAX_ROUNDS = 20
#: Multiplier applied to failing aggregates' demands per round.
SCALE_UP = 1.1


@dataclass
class AggregateTraffic:
    """What an ingress router reports for one aggregate.

    ``samples_bps`` are the last measurement window's 100 ms rates;
    ``minute_means_bps`` the history of per-minute means (at least one).
    """

    src: str
    dst: str
    samples_bps: np.ndarray
    minute_means_bps: Sequence[float]

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"aggregate with equal endpoints {self.src!r}")
        if len(self.samples_bps) == 0:
            raise ValueError(f"{self.src}->{self.dst}: no samples")
        if len(self.minute_means_bps) == 0:
            raise ValueError(f"{self.src}->{self.dst}: no minute means")

    @property
    def pair(self) -> Pair:
        return (self.src, self.dst)


@dataclass
class LdrResult:
    """Outcome of one LDR routing cycle."""

    placement: Placement
    demands_bps: Dict[Pair, float]
    rounds: int
    #: Per-round lists of links that failed the multiplexing check.
    failed_links_history: List[List[Tuple[str, str]]]
    #: Final per-link check outcomes (only links that needed a full check).
    link_checks: Dict[Tuple[str, str], LinkCheck]

    @property
    def converged(self) -> bool:
        return not self.failed_links_history or not self.failed_links_history[-1]


class LdrController:
    """The centralized LDR controller for one network."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.cache = KspCache(network)
        # Predictor state persists across routing cycles, one per pair.
        self._predictors: Dict[Pair, MeanRatePredictor] = {}
        # Path counts persist across rounds (and across route() calls) so
        # each re-optimization is a warm start, not a rebuild from k=1.
        self._warm_counts: Dict[Pair, int] = {}

    # ------------------------------------------------------------------
    def predict_demands(
        self, traffic: Sequence[AggregateTraffic]
    ) -> Dict[Pair, float]:
        """Algorithm 1 estimates for each aggregate's next-minute mean."""
        demands: Dict[Pair, float] = {}
        for item in traffic:
            predictor = self._predictors.setdefault(item.pair, MeanRatePredictor())
            prediction = 0.0
            for mean in item.minute_means_bps:
                prediction = predictor.update(float(mean))
            demands[item.pair] = prediction
        return demands

    # ------------------------------------------------------------------
    def route(self, traffic: Sequence[AggregateTraffic]) -> LdrResult:
        """One full optimize/appraise/tweak cycle."""
        if not traffic:
            raise ValueError("no traffic to route")
        samples = {item.pair: np.asarray(item.samples_bps, float) for item in traffic}
        base_demands = self.predict_demands(traffic)
        scaling = {pair: 1.0 for pair in base_demands}

        failed_history: List[List[Tuple[str, str]]] = []
        link_checks: Dict[Tuple[str, str], LinkCheck] = {}
        result = None
        rounds = 0
        for rounds in range(1, MAX_ROUNDS + 1):
            demands = {
                pair: base_demands[pair] * scaling[pair] for pair in base_demands
            }
            tm = TrafficMatrix(demands)
            result, _ = solve_iterative_latency(
                self.network, tm, cache=self.cache, warm_counts=self._warm_counts
            )
            if not result.fits:
                # The scaled demands no longer fit the network at all: no
                # amount of further scaling can help, so report the best
                # placement found and stop.  Any checks kept from the
                # previous round describe a different placement, so they
                # must not be reported against this one.
                link_checks = {}
                failed_history.append(
                    list(result.overloaded_links(only_maximal=False))
                )
                break

            # Which aggregates ride which links, and with what share.
            link_members: Dict[Tuple[str, str], List[np.ndarray]] = {}
            link_aggregates: Dict[Tuple[str, str], List[Pair]] = {}
            for agg, splits in result.fractions.items():
                for path, fraction in splits:
                    if fraction <= 1e-9:
                        continue
                    share = samples[agg.pair] * fraction
                    for key in path_links(path):
                        link_members.setdefault(key, []).append(share)
                        link_aggregates.setdefault(key, []).append(agg.pair)

            failing: List[Tuple[str, str]] = []
            link_checks = {}
            for key, members in link_members.items():
                check = check_link_multiplexing(
                    members, self.network.link(*key).capacity_bps
                )
                if check.decided_by != "peak-filter":
                    link_checks[key] = check
                if not check.passed:
                    failing.append(key)
            failed_history.append(failing)
            if not failing:
                break
            # Tweak: scale up the aggregates crossing failing links.
            to_scale = {
                pair for key in failing for pair in link_aggregates.get(key, [])
            }
            for pair in to_scale:
                scaling[pair] *= SCALE_UP

        if result is None:
            raise RuntimeError("LDR multiplexing loop ran no round")
        placement = Placement(self.network, normalize_allocations(result.fractions))
        final_demands = {
            pair: base_demands[pair] * scaling[pair] for pair in base_demands
        }
        return LdrResult(
            placement=placement,
            demands_bps=final_demands,
            rounds=rounds,
            failed_links_history=failed_history,
            link_checks=link_checks,
        )
