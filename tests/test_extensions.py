"""Tests for the paper's §8 extensions: priority classes and
stretch-bounded MinMax."""

import pytest

from repro.net.graph import Network, Node
from repro.net.units import Gbps, ms
from repro.routing import LatencyOptimalRouting, MinMaxRouting
from repro.routing.priority import (
    BEST_EFFORT,
    LATENCY_SENSITIVE,
    PriorityLatencyOptimalRouting,
    TrafficClass,
)
from repro.tm.matrix import TrafficMatrix
from tests.conftest import loaded_gts_tm


class TestTrafficClass:
    def test_weight_positive(self):
        with pytest.raises(ValueError):
            TrafficClass("bad", 0.0)


def build_contention_network() -> Network:
    """Two sources share a bottleneck toward t; both have +5 ms detours."""
    net = Network("contention")
    for name in ("s1", "s2", "m", "t", "d1", "d2"):
        net.add_node(Node(name))
    net.add_duplex_link("s1", "m", Gbps(20), ms(1))
    net.add_duplex_link("s2", "m", Gbps(20), ms(1))
    net.add_duplex_link("m", "t", Gbps(10), ms(1))
    net.add_duplex_link("s1", "d1", Gbps(20), ms(3))
    net.add_duplex_link("d1", "t", Gbps(20), ms(3))
    net.add_duplex_link("s2", "d2", Gbps(20), ms(3))
    net.add_duplex_link("d2", "t", Gbps(20), ms(3))
    return net


class TestPriorityRouting:
    def setup_method(self):
        self.net = build_contention_network()
        self.tm = TrafficMatrix(
            {("s1", "t"): Gbps(8), ("s2", "t"): Gbps(8)},
            flow_counts={("s1", "t"): 10, ("s2", "t"): 10},
        )

    def test_sensitive_class_stays_on_shortest(self):
        """With symmetric demands and detours, the latency-sensitive
        aggregate keeps the bottleneck and best-effort detours."""
        scheme = PriorityLatencyOptimalRouting(
            classes={("s1", "t"): LATENCY_SENSITIVE},
        )
        placement = scheme.place(self.net, self.tm)
        by_pair = {agg.pair: agg for agg in placement.aggregates}
        sensitive_detour = sum(
            alloc.fraction
            for alloc in placement.paths_for(by_pair[("s1", "t")])
            if "d1" in alloc.path
        )
        besteffort_detour = sum(
            alloc.fraction
            for alloc in placement.paths_for(by_pair[("s2", "t")])
            if "d2" in alloc.path
        )
        assert sensitive_detour < 0.1
        assert besteffort_detour > 0.5
        assert placement.fits_all_traffic

    def test_per_class_stretch_ordering(self):
        scheme = PriorityLatencyOptimalRouting(
            classes={("s1", "t"): LATENCY_SENSITIVE},
        )
        placement = scheme.place(self.net, self.tm)
        stretch = scheme.per_class_stretch(placement)
        assert stretch["latency-sensitive"] < stretch["best-effort"]

    def test_uniform_classes_match_unprioritized(self, gts):
        """If every aggregate is in the same class, prioritized routing
        equals plain latency-optimal routing — overloaded too, where both
        must report the same traffic as not fitting."""
        tm = loaded_gts_tm(gts)
        for scale in (1.0, 2.5):
            scaled = tm.scaled(scale)
            uniform = PriorityLatencyOptimalRouting(classes={}).place(gts, scaled)
            plain = LatencyOptimalRouting().place(gts, scaled)
            assert uniform.total_latency_stretch() == pytest.approx(
                plain.total_latency_stretch(), rel=1e-6
            )
            assert uniform.fits_all_traffic == plain.fits_all_traffic
            assert uniform.saturated_links() == plain.saturated_links()
        assert not plain.fits_all_traffic

    def test_placement_preserves_demands(self):
        scheme = PriorityLatencyOptimalRouting(
            classes={("s1", "t"): LATENCY_SENSITIVE}
        )
        placement = scheme.place(self.net, self.tm)
        for agg in placement.aggregates:
            assert agg.demand_bps == self.tm.demand(*agg.pair)
            assert agg.n_flows == self.tm.flows(*agg.pair)

    def test_invalid_headroom(self):
        with pytest.raises(ValueError):
            PriorityLatencyOptimalRouting(classes={}, headroom=1.5)


class TestStretchBoundedMinMax:
    def test_mutually_exclusive_with_k(self):
        with pytest.raises(ValueError):
            MinMaxRouting(k=10, stretch_bound=1.4)

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            MinMaxRouting(stretch_bound=0.9)

    def test_name(self):
        assert MinMaxRouting(stretch_bound=1.4).name == "MinMaxS1.4"

    def test_limits_max_path_stretch(self, gts, gts_tm):
        """The §8 idea: bounding the path set by stretch caps the worst
        detour MinMax can choose."""
        bound = 2.0
        bounded = MinMaxRouting(stretch_bound=bound).place(gts, gts_tm)
        full = MinMaxRouting().place(gts, gts_tm)
        assert bounded.max_path_stretch() <= bound + 1e-6
        assert full.max_path_stretch() > bounded.max_path_stretch()

    def test_congestion_free_once_bound_wide_enough(self, gts, gts_tm):
        """A tight bound loses capacity (exactly like MinMaxK on diverse
        networks); widening it restores congestion freedom at the true
        optimal utilization."""
        tight = MinMaxRouting(stretch_bound=1.3)
        tight_placement = tight.place(gts, gts_tm)
        wide = MinMaxRouting(stretch_bound=2.0)
        wide_placement = wide.place(gts, gts_tm)
        assert tight.last_max_utilization > wide.last_max_utilization
        assert wide_placement.congested_pair_fraction() == 0.0
        assert wide.last_max_utilization == pytest.approx(1 / 1.3, rel=0.01)

    def test_falls_back_to_shortest_when_bound_tight(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(5)})
        placement = MinMaxRouting(stretch_bound=1.0).place(diamond, tm)
        agg = placement.aggregates[0]
        assert placement.paths_for(agg)[0].path == ("s", "x", "t")
