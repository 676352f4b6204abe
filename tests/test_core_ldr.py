"""Tests for the LDR controller and headroom utilities."""

import numpy as np
import pytest

from repro.core.headroom import minmax_equivalent_headroom
from repro.core.ldr import MAX_ROUNDS, AggregateTraffic, LdrController
from repro.net.units import Gbps
from repro.tm import TrafficMatrix
from repro.traces import SyntheticTraceConfig, minute_means, synthesize_trace


def smooth_traffic(pairs, rate_bps, n_samples=600):
    """Perfectly flat aggregates: every check passes trivially."""
    return [
        AggregateTraffic(src, dst, np.full(n_samples, rate_bps), [rate_bps])
        for src, dst in pairs
    ]


def bursty_traffic(pairs, mean_bps, rng, sigma_fraction=0.3):
    items = []
    for src, dst in pairs:
        config = SyntheticTraceConfig(
            mean_bps=mean_bps,
            minutes=2,
            sample_ms=100,
            burst_sigma_fraction=sigma_fraction,
        )
        trace = synthesize_trace(config, rng)
        items.append(
            AggregateTraffic(src, dst, trace[-600:], minute_means(trace, 600))
        )
    return items


class TestAggregateTraffic:
    def test_validation(self):
        with pytest.raises(ValueError):
            AggregateTraffic("a", "a", np.ones(3), [1.0])
        with pytest.raises(ValueError):
            AggregateTraffic("a", "b", np.array([]), [1.0])
        with pytest.raises(ValueError):
            AggregateTraffic("a", "b", np.ones(3), [])


class TestPredictDemands:
    def test_hedge_applied(self, triangle):
        controller = LdrController(triangle)
        traffic = smooth_traffic([("a", "b")], Gbps(1))
        demands = controller.predict_demands(traffic)
        assert demands[("a", "b")] == pytest.approx(Gbps(1) * 1.1)

    def test_state_persists_across_calls(self, triangle):
        controller = LdrController(triangle)
        controller.predict_demands(smooth_traffic([("a", "b")], Gbps(2)))
        # A drop decays slowly from the earlier high prediction.
        demands = controller.predict_demands(smooth_traffic([("a", "b")], Gbps(1)))
        assert demands[("a", "b")] == pytest.approx(Gbps(2) * 1.1 * 0.98)


class TestRoute:
    def test_smooth_traffic_one_round(self, triangle):
        controller = LdrController(triangle)
        traffic = smooth_traffic(
            [("a", "b"), ("b", "c"), ("a", "c")], Gbps(1)
        )
        result = controller.route(traffic)
        assert result.converged
        assert result.rounds == 1
        assert result.placement.total_latency_stretch() == pytest.approx(1.0)

    def test_converges_on_loaded_network(self, gts):
        from tests.conftest import loaded_gts_tm

        # Lighter load (min-cut 60%) and mild burstiness: LDR's regime.
        tm = loaded_gts_tm(gts, growth_factor=1.65)
        rng = np.random.default_rng(11)
        traffic = []
        last_means = {}
        for agg in tm.aggregates():
            config = SyntheticTraceConfig(
                mean_bps=agg.demand_bps,
                minutes=2,
                sample_ms=100,
                burst_sigma_fraction=0.15,
            )
            trace = synthesize_trace(config, rng)
            means = minute_means(trace, 600)
            last_means[agg.pair] = float(means[-1])
            traffic.append(
                AggregateTraffic(agg.src, agg.dst, trace[-600:], means)
            )
        controller = LdrController(gts)
        result = controller.route(traffic)
        assert result.converged
        # No link may be overloaded by the (hedged) demand estimates.
        assert result.placement.max_utilization() <= 1.0 + 1e-4
        # Algorithm 1 guarantees prediction >= hedge * last measured mean,
        # and the multiplexing loop only ever scales demands up.
        for pair, mean in last_means.items():
            assert result.demands_bps[pair] >= mean * 1.1 * 0.999

    def test_bursty_elephant_gets_split_or_scaled(self, diamond, rng):
        """A single bursty elephant near the fast path's capacity should
        force LDR to reserve headroom (scale up) and spill to the slow
        path, where a mean-rate-only optimizer would pack the fast path
        full."""
        traffic = bursty_traffic([("s", "t")], Gbps(8.5), rng, sigma_fraction=0.4)
        controller = LdrController(diamond)
        result = controller.route(traffic)
        agg = result.placement.aggregates[0]
        used_slow = any(
            "y" in alloc.path for alloc in result.placement.paths_for(agg)
        )
        scaled_up = result.demands_bps[("s", "t")] > Gbps(8.5) * 1.1 * 1.05
        assert used_slow or scaled_up

    def test_unroutable_demands_stop_early(self, triangle):
        controller = LdrController(triangle)
        traffic = smooth_traffic([("a", "b")], Gbps(25))
        result = controller.route(traffic)
        assert not result.converged
        assert result.rounds < MAX_ROUNDS

    def test_non_fitting_round_reports_overload(self, gts):
        """A cycle that stops because the demands no longer fit must say
        so in its placement, as every LP scheme's placement does."""
        from tests.conftest import loaded_gts_tm

        traffic = [
            AggregateTraffic(
                agg.src, agg.dst, np.full(600, agg.demand_bps), [agg.demand_bps]
            )
            for agg in loaded_gts_tm(gts).scaled(3.0).aggregates()
        ]
        result = LdrController(gts).route(traffic)
        assert not result.converged
        assert result.placement.max_utilization() > 1.0 + 1e-4
        assert not result.placement.fits_all_traffic
        assert result.placement.saturated_links()

    def test_empty_traffic_rejected(self, triangle):
        controller = LdrController(triangle)
        with pytest.raises(ValueError):
            controller.route([])


class TestHeadroom:
    def test_minmax_equivalent_headroom(self, gts, gts_tm):
        headroom = minmax_equivalent_headroom(gts, gts_tm)
        # Traffic scaled for growth factor 1.3: min-cut at 77% -> 23% free.
        assert headroom == pytest.approx(1 - 1 / 1.3, rel=1e-3)

    def test_headroom_zero_when_unroutable(self, triangle):
        tm = TrafficMatrix({("a", "b"): Gbps(30)})
        assert minmax_equivalent_headroom(triangle, tm) == 0.0

    def test_latency_optimal_converges_to_minmax_at_full_headroom(
        self, gts, gts_tm
    ):
        """The paper's §4 observation: with headroom set to MinMax's free
        capacity, latency-optimal placement matches MinMax's stretch."""
        from repro.routing import LatencyOptimalRouting, MinMaxRouting

        headroom = minmax_equivalent_headroom(gts, gts_tm)
        ldr_at_max = LatencyOptimalRouting(headroom=headroom).place(gts, gts_tm)
        minmax = MinMaxRouting().place(gts, gts_tm)
        assert ldr_at_max.total_latency_stretch() == pytest.approx(
            minmax.total_latency_stretch(), rel=0.02
        )
        assert ldr_at_max.max_utilization() <= 1 / 1.3 * 1.01
