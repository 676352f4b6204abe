"""Behavioural tests for the routing schemes on hand-built networks."""

import pytest

from repro.net.graph import Network, Node
from repro.net.paths import KspCache
from repro.net.units import Gbps, ms
from repro.routing import (
    B4Routing,
    LatencyOptimalRouting,
    LinkBasedOptimalRouting,
    MinMaxRouting,
    ShortestPathRouting,
)
from repro.tm import max_scale_factor
from repro.tm.matrix import TrafficMatrix
from tests.conftest import loaded_gts_tm


class TestShortestPath:
    def test_everything_on_shortest(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(1)})
        placement = ShortestPathRouting().place(diamond, tm)
        agg = placement.aggregates[0]
        assert placement.paths_for(agg)[0].path == ("s", "x", "t")
        assert placement.total_latency_stretch() == pytest.approx(1.0)

    def test_oblivious_to_overload(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(20)})
        placement = ShortestPathRouting().place(diamond, tm)
        assert placement.congested_pair_fraction() == 1.0
        assert placement.max_utilization() == pytest.approx(2.0)


class TestLatencyOptimal:
    def test_uses_shortest_when_it_fits(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(5)})
        placement = LatencyOptimalRouting().place(diamond, tm)
        assert placement.total_latency_stretch() == pytest.approx(1.0)
        assert placement.max_utilization() <= 1.0 + 1e-6

    def test_spills_over_when_needed(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(20)})
        placement = LatencyOptimalRouting().place(diamond, tm)
        assert placement.fits_all_traffic
        assert placement.max_utilization() <= 1.0 + 1e-4
        agg = placement.aggregates[0]
        fractions = {
            alloc.path: alloc.fraction for alloc in placement.paths_for(agg)
        }
        # Fast path saturated (10 of 20), the rest on the slow route.
        assert fractions[("s", "x", "t")] == pytest.approx(0.5, abs=0.01)
        assert fractions[("s", "y", "t")] == pytest.approx(0.5, abs=0.01)

    def test_headroom_shifts_traffic_earlier(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(10)})
        without = LatencyOptimalRouting().place(diamond, tm)
        with_headroom = LatencyOptimalRouting(headroom=0.2).place(diamond, tm)
        # With 20% headroom the 10G fast path only offers 8G.
        assert with_headroom.total_latency_stretch() > without.total_latency_stretch()
        # But real capacity is never exceeded.
        assert with_headroom.max_utilization() <= 1.0 + 1e-6

    @pytest.mark.parametrize("load,fits", [(0.95, True), (1.05, False)])
    def test_headroom_judges_excess_on_real_capacity(self, gts, load, fits):
        # LDR(h=10%) routes on capacities scaled by 0.9, so a matrix at 95%
        # of what the real network carries overloads its LP; only the real
        # capacities decide whether it fits.
        tm = loaded_gts_tm(gts, seed=0)
        tm = tm.scaled(load * max_scale_factor(gts, tm))
        placement = LatencyOptimalRouting(headroom=0.1).place(gts, tm)
        assert placement.max_utilization() == pytest.approx(load, abs=1e-6)
        assert placement.fits_all_traffic is fits
        assert bool(placement.saturated_links()) is not fits

    def test_overload_spread_when_unroutable(self, line4):
        tm = TrafficMatrix({("n0", "n3"): Gbps(15)})
        placement = LatencyOptimalRouting().place(line4, tm)
        assert not placement.fits_all_traffic
        assert placement.max_utilization() == pytest.approx(1.5)

    def test_invalid_headroom_rejected(self):
        with pytest.raises(ValueError):
            LatencyOptimalRouting(headroom=1.0)

    def test_prefers_moving_long_rtt_aggregate(self):
        """The paper's M1 tie-break: when two aggregates compete for a
        shared bottleneck and either could detour at equal total delay
        cost, the one with the larger shortest-path RTT moves."""
        net = Network("tiebreak")
        for name in ("a1", "a2", "m", "t", "d1", "d2"):
            net.add_node(Node(name))
        # Short aggregate a1->t; long aggregate a2->t (longer feeder).
        net.add_duplex_link("a1", "m", Gbps(10), ms(1))
        net.add_duplex_link("a2", "m", Gbps(10), ms(10))
        net.add_duplex_link("m", "t", Gbps(10), ms(1))  # shared bottleneck
        # Equal-delay-penalty detours for both.
        net.add_duplex_link("a1", "d1", Gbps(10), ms(1))
        net.add_duplex_link("d1", "t", Gbps(10), ms(2))
        net.add_duplex_link("a2", "d2", Gbps(10), ms(10))
        net.add_duplex_link("d2", "t", Gbps(10), ms(2))
        tm = TrafficMatrix({("a1", "t"): Gbps(8), ("a2", "t"): Gbps(8)})
        placement = LatencyOptimalRouting().place(net, tm)
        by_pair = {agg.pair: agg for agg in placement.aggregates}
        stretches = placement.stretch_by(lambda agg: agg)
        # Both detours cost +1 ms of extra delay; the tie-break should
        # detour more of the long-RTT aggregate a2 than of a1.
        a1_detour = sum(
            alloc.fraction
            for alloc in placement.paths_for(by_pair[("a1", "t")])
            if "d1" in alloc.path
        )
        a2_detour = sum(
            alloc.fraction
            for alloc in placement.paths_for(by_pair[("a2", "t")])
            if "d2" in alloc.path
        )
        assert a2_detour > a1_detour
        assert stretches[by_pair[("a1", "t")]] <= stretches[by_pair[("a2", "t")]] * 6


class TestMinMax:
    def test_balances_across_equal_paths(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(10)})
        placement = MinMaxRouting().place(diamond, tm)
        # MinMax spreads: max utilization should be 10/(10+40) normalized
        # by per-path capacity -> the LP pushes most to the fat path.
        assert placement.max_utilization() == pytest.approx(0.2, abs=0.01)

    def test_no_congestion_when_routable(self, gts, gts_tm):
        placement = MinMaxRouting().place(gts, gts_tm)
        assert placement.congested_pair_fraction() == 0.0
        assert placement.max_utilization() == pytest.approx(1 / 1.3, rel=0.01)

    def test_k_restriction_can_cost_capacity(self):
        """With k=1 MinMax degenerates to shortest-path and can congest."""
        net = Network("two-route")
        for name in ("s", "m", "t"):
            net.add_node(Node(name))
        net.add_duplex_link("s", "m", Gbps(10), ms(1))
        net.add_duplex_link("m", "t", Gbps(10), ms(1))
        net.add_duplex_link("s", "t", Gbps(10), ms(5))
        tm = TrafficMatrix({("s", "t"): Gbps(15)})
        restricted = MinMaxRouting(k=1).place(net, tm)
        assert restricted.max_utilization() > 1.0
        full = MinMaxRouting().place(net, tm)
        assert full.max_utilization() <= 1.0 + 1e-6

    def test_latency_tiebreak_avoids_needless_detours(self, diamond):
        # Lightly loaded: even MinMax has no reason to use the slow path
        # beyond what utilization demands; latency tie-break keeps most
        # traffic fast when utilizations tie at tiny values.
        tm = TrafficMatrix({("s", "t"): Gbps(1)})
        placement = MinMaxRouting().place(diamond, tm)
        assert placement.max_utilization() <= 0.05

    def test_matches_linkbased_utilization(self, gts, gts_tm):
        """Path-based MinMax reaches the exact optimum computed
        by the link-based LP (the reciprocal concurrent-flow bound)."""
        from repro.routing.minmax import optimal_max_utilization

        placement = MinMaxRouting().place(gts, gts_tm)
        target = optimal_max_utilization(gts, gts_tm)
        assert placement.max_utilization() == pytest.approx(target, rel=2e-3)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            MinMaxRouting(k=0)


class TestB4:
    def test_single_aggregate_on_shortest(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(5)})
        placement = B4Routing().place(diamond, tm)
        agg = placement.aggregates[0]
        assert placement.paths_for(agg)[0].path == ("s", "x", "t")

    def test_progressive_filling_spills(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(30)})
        placement = B4Routing().place(diamond, tm)
        assert placement.fits_all_traffic
        loads = placement.link_loads_bps()
        assert loads[("s", "x")] == pytest.approx(Gbps(10), rel=0.01)
        assert loads[("s", "y")] == pytest.approx(Gbps(20), rel=0.01)

    def test_forces_residual_onto_shortest_when_stuck(self, line4):
        tm = TrafficMatrix({("n0", "n3"): Gbps(15)})
        placement = B4Routing().place(line4, tm)
        assert not placement.fits_all_traffic
        assert placement.max_utilization() == pytest.approx(1.5)

    def test_equal_sharing_at_bottleneck(self):
        net = Network("shared")
        for name in ("s1", "s2", "m", "t"):
            net.add_node(Node(name))
        net.add_duplex_link("s1", "m", Gbps(10), ms(1))
        net.add_duplex_link("s2", "m", Gbps(10), ms(1))
        net.add_duplex_link("m", "t", Gbps(10), ms(1))
        tm = TrafficMatrix({("s1", "t"): Gbps(10), ("s2", "t"): Gbps(10)})
        placement = B4Routing().place(net, tm)
        loads = placement.link_loads_bps()
        # Both aggregates waterfill the shared m->t link equally until it
        # fills; the rest cannot be placed anywhere (no alternates).
        assert loads[("s1", "m")] == pytest.approx(loads[("s2", "m")], rel=0.01)
        assert not placement.fits_all_traffic

    def test_headroom_reserves_capacity(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(10)})
        placement = B4Routing(headroom=0.2).place(diamond, tm)
        loads = placement.link_loads_bps()
        # First pass fills the fast path only to 80%; the spill goes to
        # the slow path (or back into headroom on the second pass).
        assert loads[("s", "x")] <= Gbps(10) + 1.0
        assert placement.fits_all_traffic

    def test_invalid_headroom_rejected(self):
        with pytest.raises(ValueError):
            B4Routing(headroom=-0.1)


class TestLinkBased:
    def test_matches_pathbased_stretch(self, gts, gts_tm):
        """The link-based LP is the exact optimum; the paper's iterative
        path growth should land within a percent of it (and never beat
        it, since the link-based model sees every path implicitly)."""
        cache = KspCache(gts)
        path_based = LatencyOptimalRouting(cache=cache).place(gts, gts_tm)
        link_based = LinkBasedOptimalRouting().place(gts, gts_tm)
        exact = link_based.total_latency_stretch()
        iterative = path_based.total_latency_stretch()
        assert exact <= iterative + 1e-6
        assert iterative == pytest.approx(exact, rel=0.01)
        assert link_based.max_utilization() <= 1.0 + 1e-4

    def test_simple_split(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(20)})
        placement = LinkBasedOptimalRouting().place(diamond, tm)
        assert placement.fits_all_traffic
        loads = placement.link_loads_bps()
        assert loads[("s", "x")] == pytest.approx(Gbps(10), rel=0.01)
        assert loads[("s", "y")] == pytest.approx(Gbps(10), rel=0.01)
