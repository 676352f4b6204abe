"""Focused tests on LDR result structure and controller internals."""

import numpy as np
import pytest

from repro.core.ldr import SCALE_UP, AggregateTraffic, LdrController
from repro.net.units import Gbps


def flat(pair, rate, n=600):
    return AggregateTraffic(pair[0], pair[1], np.full(n, rate), [rate])


class TestResultStructure:
    def test_failed_history_one_entry_per_round(self, diamond, rng):
        # A bursty aggregate near the fast path's capacity forces at
        # least one tweak round.
        samples = np.where(rng.random(600) < 0.3, Gbps(12), Gbps(6))
        traffic = [
            AggregateTraffic("s", "t", samples, [float(samples.mean())])
        ]
        controller = LdrController(diamond)
        result = controller.route(traffic)
        assert len(result.failed_links_history) == result.rounds
        if result.converged:
            assert result.failed_links_history[-1] == []

    def test_link_checks_exclude_peak_filtered(self, triangle):
        controller = LdrController(triangle)
        result = controller.route(
            [flat(("a", "b"), Gbps(1)), flat(("b", "c"), Gbps(1))]
        )
        # Flat light traffic passes the peak filter everywhere: no full
        # checks should be recorded.
        assert result.link_checks == {}

    def test_demands_cover_every_pair(self, triangle):
        controller = LdrController(triangle)
        traffic = [flat(("a", "b"), Gbps(1)), flat(("c", "a"), Gbps(2))]
        result = controller.route(traffic)
        assert set(result.demands_bps) == {("a", "b"), ("c", "a")}

    def test_placement_covers_every_pair(self, triangle):
        controller = LdrController(triangle)
        traffic = [flat(("a", "b"), Gbps(1)), flat(("b", "c"), Gbps(2))]
        result = controller.route(traffic)
        pairs = {agg.pair for agg in result.placement.aggregates}
        assert pairs == {("a", "b"), ("b", "c")}

    def test_warm_counts_persist_across_calls(self, diamond):
        controller = LdrController(diamond)
        heavy = [flat(("s", "t"), Gbps(12))]
        controller.route(heavy)
        warm = dict(controller._warm_counts)
        assert warm.get(("s", "t"), 1) > 1  # needed the second path
        controller.route(heavy)
        assert controller._warm_counts[("s", "t")] >= warm[("s", "t")]

    def test_warm_counts_initialized_empty(self, diamond):
        assert LdrController(diamond)._warm_counts == {}

    def test_no_stale_link_checks_when_demands_stop_fitting(self, diamond):
        """A round-1 placement can record failing link checks, the tweak
        scales demands beyond what the network fits, and round 2 breaks
        out on the not-fits path.  The checks from round 1 describe a
        different placement and must not survive into the result."""
        # Mean 40 Gbps (hedged to 44) fits the 50 Gbps s-cut in round 1;
        # the 80/0 alternation makes every carrying link fail the temporal
        # test, and two 1.1x tweaks push round 3 to 53.2 Gbps — unroutable.
        samples = np.tile([Gbps(80), 0.0], 300)
        traffic = [
            AggregateTraffic("s", "t", samples, [float(samples.mean())])
        ]
        controller = LdrController(diamond)
        result = controller.route(traffic)
        assert not result.converged
        # The final round's LP did not fit, so no appraise ran on the
        # returned placement: stale round-1 checks must have been cleared.
        assert result.rounds >= 2
        assert result.link_checks == {}


class TestScalingBehaviour:
    def test_smooth_traffic_never_scaled(self, triangle):
        controller = LdrController(triangle)
        result = controller.route([flat(("a", "b"), Gbps(2))])
        # Prediction = hedge * rate exactly; no multiplexing scaling.
        assert result.demands_bps[("a", "b")] == pytest.approx(
            Gbps(2) * 1.1
        )

    def test_scaling_grows_geometrically(self, diamond, rng):
        controller = LdrController(diamond)
        samples = np.where(rng.random(600) < 0.5, Gbps(13), Gbps(4))
        traffic = [
            AggregateTraffic("s", "t", samples, [float(samples.mean())])
        ]
        result = controller.route(traffic)
        base = float(samples.mean()) * 1.1
        demand = result.demands_bps[("s", "t")]
        # Demand is base * SCALE_UP^k for some integer k in [0, rounds].
        k = np.log(demand / base) / np.log(SCALE_UP)
        assert k == pytest.approx(round(k), abs=1e-6)
        assert 0 <= round(k) <= result.rounds
