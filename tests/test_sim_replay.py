"""Tests for the trace-replay simulator, including the LDR closed loop."""

import numpy as np
import pytest

from repro.net.units import Gbps
from repro.routing.base import PathAllocation, Placement
from repro.sim import replay_placement
from repro.tm.matrix import Aggregate


def single_path_placement(network, pair, demand, path):
    agg = Aggregate(pair[0], pair[1], demand)
    return agg, Placement(network, {agg: [PathAllocation(path, 1.0)]})


class TestReplayMechanics:
    def test_no_queue_under_capacity(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(5), ("a", "b")
        )
        samples = {("a", "b"): np.full(10, Gbps(5))}
        result = replay_placement(placement, samples)
        assert result.max_queue_delay_s == 0.0
        stats = result.per_link[("a", "b")]
        assert stats.mean_utilization == pytest.approx(0.5)
        assert stats.intervals_with_queue == 0

    def test_sustained_overload_builds_queue(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(12), ("a", "b")
        )
        samples = {("a", "b"): np.full(5, Gbps(12))}
        result = replay_placement(placement, samples)
        # 2 Gb/s of excess over 5 intervals of 0.1 s = 1 Gbit of queue;
        # drained at 10 Gb/s that is 100 ms of delay.
        assert result.max_queue_delay_s == pytest.approx(0.1)
        assert result.per_link[("a", "b")].intervals_with_queue == 5

    def test_burst_drains(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(5), ("a", "b")
        )
        burst = np.array([Gbps(20)] + [Gbps(1)] * 9)
        result = replay_placement(placement, {("a", "b"): burst})
        stats = result.per_link[("a", "b")]
        # One interval of +10 Gb/s -> 1 Gbit queue -> 0.1 s delay, then it
        # drains within the next interval (9 Gb/s of slack drains 0.9 Gbit).
        assert stats.max_queue_delay_s == pytest.approx(0.1)
        assert stats.intervals_with_queue == 2

    def test_split_traffic_loads_both_paths(self, diamond):
        agg = Aggregate("s", "t", Gbps(10))
        placement = Placement(
            diamond,
            {
                agg: [
                    PathAllocation(("s", "x", "t"), 0.5),
                    PathAllocation(("s", "y", "t"), 0.5),
                ]
            },
        )
        samples = {("s", "t"): np.full(4, Gbps(10))}
        result = replay_placement(placement, samples)
        assert result.per_link[("s", "x")].mean_utilization == pytest.approx(0.5)
        assert result.per_link[("s", "y")].mean_utilization == pytest.approx(
            0.125
        )

    def test_missing_samples_use_mean_demand(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(4), ("a", "b")
        )
        result = replay_placement(placement, {})
        assert result.per_link[("a", "b")].mean_utilization == pytest.approx(0.4)

    def test_validation(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(1), ("a", "b")
        )
        with pytest.raises(ValueError):
            replay_placement(placement, {}, interval_s=0.0)
        with pytest.raises(ValueError):
            replay_placement(
                placement,
                {("a", "b"): np.ones(3), ("b", "c"): np.ones(4)},
            )

    def test_links_exceeding(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(12), ("a", "b")
        )
        samples = {("a", "b"): np.full(5, Gbps(12))}
        result = replay_placement(placement, samples)
        assert result.links_exceeding(0.01) == [("a", "b")]
        assert result.links_exceeding(1.0) == []


class TestLdrClosedLoop:
    def test_converged_ldr_placement_respects_queue_budget(self, gts):
        """The point of the whole control loop: replaying the very samples
        LDR checked against must not exceed the queue budget."""
        from repro.core.ldr import AggregateTraffic, LdrConfig, LdrController
        from repro.traces import SyntheticTraceConfig, minute_means, synthesize_trace
        from tests.conftest import loaded_gts_tm

        tm = loaded_gts_tm(gts, growth_factor=1.65)
        rng = np.random.default_rng(77)
        traffic = []
        samples = {}
        for agg in tm.aggregates():
            config = SyntheticTraceConfig(
                mean_bps=agg.demand_bps,
                minutes=2,
                sample_ms=100,
                burst_sigma_fraction=0.15,
            )
            trace = synthesize_trace(config, rng)
            window = trace[-600:]
            samples[agg.pair] = window
            traffic.append(
                AggregateTraffic(
                    agg.src, agg.dst, window, minute_means(trace, 600)
                )
            )
        controller = LdrController(gts, LdrConfig(max_rounds=20))
        result = controller.route(traffic)
        assert result.converged

        replay = replay_placement(result.placement, samples)
        budget = controller.config.max_queue_s
        assert replay.max_queue_delay_s <= budget + 1e-9, (
            f"transient queue {replay.max_queue_delay_s * 1000:.2f} ms "
            f"exceeds the {budget * 1000:.0f} ms budget"
        )
