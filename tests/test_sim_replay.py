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
        assert result.per_link == {("a", "b"): 0.0}

    def test_sustained_overload_builds_queue(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(12), ("a", "b")
        )
        samples = {("a", "b"): np.full(5, Gbps(12))}
        result = replay_placement(placement, samples)
        # 2 Gb/s of excess over 5 intervals of 0.1 s = 1 Gbit of queue;
        # drained at 10 Gb/s that is 100 ms of delay.
        assert result.max_queue_delay_s == pytest.approx(0.1)

    def test_burst_drains(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(5), ("a", "b")
        )
        burst = np.array([Gbps(20), Gbps(1), Gbps(20)] + [Gbps(1)] * 7)
        result = replay_placement(placement, {("a", "b"): burst})
        # One interval of +10 Gb/s -> 1 Gbit queue; the next interval's
        # 9 Gb/s of slack drains 0.9 Gbit of it, so the second burst
        # peaks at 1.1 Gbit -> 0.11 s, not 2 Gbit.
        assert result.per_link[("a", "b")] == pytest.approx(0.11)

    def test_split_traffic_loads_both_paths(self, diamond):
        agg = Aggregate("s", "t", Gbps(30))
        placement = Placement(
            diamond,
            {
                agg: [
                    PathAllocation(("s", "x", "t"), 0.5),
                    PathAllocation(("s", "y", "t"), 0.5),
                ]
            },
        )
        samples = {("s", "t"): np.full(4, Gbps(30))}
        result = replay_placement(placement, samples)
        # Each path carries 15 Gb/s: 5 Gb/s over the 10 Gb/s fast path for
        # 4 intervals of 0.1 s queues 2 Gbit (0.2 s); the 40 Gb/s slow
        # path never queues.
        assert set(result.per_link) == {
            ("s", "x"), ("x", "t"), ("s", "y"), ("y", "t")
        }
        assert result.per_link[("s", "x")] == pytest.approx(0.2)
        assert result.per_link[("s", "y")] == 0.0

    def test_missing_samples_use_mean_demand(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(12), ("a", "b")
        )
        result = replay_placement(placement, {})
        # One interval at the 12 Gb/s mean: 0.2 Gbit queued -> 20 ms.
        assert result.per_link[("a", "b")] == pytest.approx(0.02)

    def test_validation(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(1), ("a", "b")
        )
        with pytest.raises(ValueError):
            replay_placement(
                placement,
                {("a", "b"): np.ones(3), ("b", "c"): np.ones(4)},
            )

    def test_links_over_budget(self, triangle):
        agg, placement = single_path_placement(
            triangle, ("a", "b"), Gbps(12), ("a", "b")
        )
        # 100 ms of queue is over the 10 ms budget; 5 ms is not.
        over = replay_placement(placement, {("a", "b"): np.full(5, Gbps(12))})
        assert over.links_over_budget() == [("a", "b")]
        under = replay_placement(placement, {("a", "b"): np.full(1, Gbps(10.5))})
        assert under.per_link[("a", "b")] == pytest.approx(0.005)
        assert under.links_over_budget() == []


class TestLdrClosedLoop:
    def test_converged_ldr_placement_respects_queue_budget(self, gts):
        """The point of the whole control loop: replaying the very samples
        LDR checked against must not exceed the queue budget."""
        from repro.core.ldr import AggregateTraffic, LdrController
        from repro.core.multiplexing import MAX_QUEUE_S
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
        controller = LdrController(gts)
        result = controller.route(traffic)
        assert result.converged

        replay = replay_placement(result.placement, samples)
        budget = MAX_QUEUE_S
        assert replay.max_queue_delay_s <= budget + 1e-9, (
            f"transient queue {replay.max_queue_delay_s * 1000:.2f} ms "
            f"exceeds the {budget * 1000:.0f} ms budget"
        )
