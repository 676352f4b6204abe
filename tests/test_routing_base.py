"""Unit tests for Placement and its metrics."""

import pytest

from repro.net.units import Gbps
from repro.routing.base import (
    OVERLOAD_TOLERANCE,
    PathAllocation,
    Placement,
    normalize_allocations,
)
from repro.tm.matrix import Aggregate


class TestValidation:
    def test_fractions_must_sum_to_one(self, triangle):
        agg = Aggregate("a", "b", Gbps(1))
        with pytest.raises(ValueError, match="sum"):
            Placement(triangle, {agg: [PathAllocation(("a", "b"), 0.5)]})

    def test_path_endpoints_must_match(self, triangle):
        agg = Aggregate("a", "b", Gbps(1))
        with pytest.raises(ValueError, match="assigned path"):
            Placement(triangle, {agg: [PathAllocation(("a", "c"), 1.0)]})

    def test_split_allocation_valid(self, triangle):
        agg = Aggregate("a", "b", Gbps(1))
        placement = Placement(
            triangle,
            {
                agg: [
                    PathAllocation(("a", "b"), 0.6),
                    PathAllocation(("a", "c", "b"), 0.4),
                ]
            },
        )
        assert len(placement.paths_for(agg)) == 2


class TestLinkMetrics:
    def test_link_loads(self, triangle):
        agg = Aggregate("a", "b", Gbps(4))
        placement = Placement(
            triangle,
            {
                agg: [
                    PathAllocation(("a", "b"), 0.75),
                    PathAllocation(("a", "c", "b"), 0.25),
                ]
            },
        )
        loads = placement.link_loads_bps()
        assert loads[("a", "b")] == pytest.approx(Gbps(3))
        assert loads[("a", "c")] == pytest.approx(Gbps(1))
        assert loads[("c", "b")] == pytest.approx(Gbps(1))
        assert loads[("b", "a")] == 0.0

    def test_max_utilization(self, triangle):
        agg = Aggregate("a", "b", Gbps(5))
        placement = Placement(
            triangle, {agg: [PathAllocation(("a", "b"), 1.0)]}
        )
        assert placement.max_utilization() == pytest.approx(0.5)

    def test_saturated_links(self, triangle):
        agg = Aggregate("a", "b", Gbps(12))
        placement = Placement(
            triangle, {agg: [PathAllocation(("a", "b"), 1.0)]}
        )
        assert placement.saturated_links() == [("a", "b")]

    def test_exactly_full_is_not_saturated(self, triangle):
        agg = Aggregate("a", "b", Gbps(10))
        placement = Placement(
            triangle, {agg: [PathAllocation(("a", "b"), 1.0)]}
        )
        assert placement.saturated_links() == []


class TestPairMetrics:
    def test_congested_pair_fraction(self, triangle):
        heavy = Aggregate("a", "b", Gbps(12))
        light = Aggregate("b", "c", Gbps(1))
        placement = Placement(
            triangle,
            {
                heavy: [PathAllocation(("a", "b"), 1.0)],
                light: [PathAllocation(("b", "c"), 1.0)],
            },
        )
        assert placement.congested_pair_fraction() == pytest.approx(0.5)

    def test_no_congestion_zero(self, triangle, triangle_tm):
        allocs = {
            agg: [PathAllocation((agg.src, agg.dst), 1.0)]
            for agg in triangle_tm.aggregates()
        }
        placement = Placement(triangle, allocs)
        assert placement.congested_pair_fraction() == 0.0

    def test_stretch_on_shortest_paths_is_one(self, triangle, triangle_tm):
        allocs = {
            agg: [PathAllocation((agg.src, agg.dst), 1.0)]
            for agg in triangle_tm.aggregates()
        }
        placement = Placement(triangle, allocs)
        assert placement.total_latency_stretch() == pytest.approx(1.0)

    def test_stretch_counts_detours(self, triangle):
        agg = Aggregate("a", "b", Gbps(1), n_flows=1)
        placement = Placement(
            triangle, {agg: [PathAllocation(("a", "c", "b"), 1.0)]}
        )
        # 2 ms path over a 1 ms shortest path.
        assert placement.total_latency_stretch() == pytest.approx(2.0)

    def test_stretch_weighted_by_flows(self, triangle):
        detoured = Aggregate("a", "b", Gbps(1), n_flows=3)
        direct = Aggregate("b", "c", Gbps(1), n_flows=1)
        placement = Placement(
            triangle,
            {
                detoured: [PathAllocation(("a", "c", "b"), 1.0)],
                direct: [PathAllocation(("b", "c"), 1.0)],
            },
        )
        # (3*2ms + 1*1ms) / (3*1ms + 1*1ms) = 7/4.
        assert placement.total_latency_stretch() == pytest.approx(1.75)

    def test_max_path_stretch(self, diamond):
        agg = Aggregate("s", "t", Gbps(1))
        placement = Placement(
            diamond,
            {
                agg: [
                    PathAllocation(("s", "x", "t"), 0.9),
                    PathAllocation(("s", "y", "t"), 0.1),
                ]
            },
        )
        # Slow route is 10 ms vs 2 ms shortest.
        assert placement.max_path_stretch() == pytest.approx(5.0)

    def test_per_aggregate_stretch(self, diamond):
        agg = Aggregate("s", "t", Gbps(1))
        placement = Placement(
            diamond,
            {
                agg: [
                    PathAllocation(("s", "x", "t"), 0.5),
                    PathAllocation(("s", "y", "t"), 0.5),
                ]
            },
        )
        stretches = placement.stretch_by(lambda agg: agg)
        assert stretches[agg] == pytest.approx(3.0)  # (1+5)/2 ms over 2 ms

    def test_stretch_metrics_share_one_sweep_per_source(self, triangle):
        from repro.net.index import graph_index

        placement = Placement(
            triangle,
            {
                Aggregate("a", "b", Gbps(1)): [PathAllocation(("a", "c", "b"), 1.0)],
                Aggregate("a", "c", Gbps(1)): [PathAllocation(("a", "c"), 1.0)],
                Aggregate("b", "c", Gbps(1)): [PathAllocation(("b", "c"), 1.0)],
            },
        )
        index = graph_index(triangle)
        before = index.searches
        placement.total_latency_stretch()
        placement.max_path_stretch()
        placement.stretch_by(lambda agg: agg)
        assert index.searches - before == 2  # sources a and b, once each
        # A second placement on the same network reuses the index's sweeps.
        again = Placement(
            triangle,
            {Aggregate("b", "a", Gbps(1)): [PathAllocation(("b", "a"), 1.0)]},
        )
        before = index.searches
        assert again.total_latency_stretch() == pytest.approx(1.0)
        assert index.searches == before

    def test_fits_all_traffic_flag(self, triangle):
        """Fit is the real links' verdict: a placement fits when no link
        carries more than its capacity, within the overload tolerance."""
        for load, fits in [
            (0.1, True),
            (1.0, True),
            (1.0 + OVERLOAD_TOLERANCE / 2, True),
            (1.0 + 2 * OVERLOAD_TOLERANCE, False),
            (1.5, False),
        ]:
            agg = Aggregate("a", "b", Gbps(10) * load)
            placement = Placement(
                triangle, {agg: [PathAllocation(("a", "b"), 1.0)]}
            )
            assert placement.max_utilization() == pytest.approx(load, rel=1e-12)
            assert placement.fits_all_traffic is fits, load


class TestNormalizeAllocations:
    def test_drops_tiny_fractions(self):
        agg = Aggregate("a", "b", Gbps(1))
        cleaned = normalize_allocations(
            {agg: [(("a", "b"), 0.9999999), (("a", "c", "b"), 1e-9)]}
        )
        assert len(cleaned[agg]) == 1
        assert cleaned[agg][0].fraction == pytest.approx(1.0)

    def test_renormalizes(self):
        agg = Aggregate("a", "b", Gbps(1))
        cleaned = normalize_allocations(
            {agg: [(("a", "b"), 0.6), (("a", "c", "b"), 0.3)]}
        )
        total = sum(alloc.fraction for alloc in cleaned[agg])
        assert total == pytest.approx(1.0)

    def test_keeps_largest_when_all_tiny(self):
        agg = Aggregate("a", "b", Gbps(1))
        cleaned = normalize_allocations(
            {agg: [(("a", "b"), 1e-9), (("a", "c", "b"), 1e-8)]}
        )
        assert cleaned[agg][0].path == ("a", "c", "b")
        assert cleaned[agg][0].fraction == pytest.approx(1.0)
