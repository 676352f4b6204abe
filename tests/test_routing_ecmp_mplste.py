"""Tests for the ECMP and MPLS-TE schemes."""

import pytest

from repro.net.graph import Network, Node
from repro.net.units import Gbps, ms
from repro.routing import (
    B4Routing,
    EcmpRouting,
    LatencyOptimalRouting,
    MplsTeRouting,
    ShortestPathRouting,
)
from repro.tm import TrafficMatrix


def build_parallel_paths() -> Network:
    """Two exactly equal-delay two-hop routes between s and t."""
    net = Network("parallel")
    for name in ("s", "t", "p", "q"):
        net.add_node(Node(name))
    net.add_duplex_link("s", "p", Gbps(10), ms(1))
    net.add_duplex_link("p", "t", Gbps(10), ms(1))
    net.add_duplex_link("s", "q", Gbps(10), ms(1))
    net.add_duplex_link("q", "t", Gbps(10), ms(1))
    return net


class TestEcmp:
    def test_splits_evenly_across_ties(self):
        net = build_parallel_paths()
        tm = TrafficMatrix({("s", "t"): Gbps(10)})
        placement = EcmpRouting().place(net, tm)
        agg = placement.aggregates[0]
        allocs = placement.paths_for(agg)
        assert len(allocs) == 2
        for alloc in allocs:
            assert alloc.fraction == pytest.approx(0.5)
        # Splitting halves utilization relative to plain SP.
        sp = ShortestPathRouting().place(net, tm)
        assert placement.max_utilization() == pytest.approx(
            sp.max_utilization() / 2
        )

    def test_single_shortest_behaves_like_sp(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(4)})
        ecmp = EcmpRouting().place(diamond, tm)
        agg = ecmp.aggregates[0]
        assert [a.path for a in ecmp.paths_for(agg)] == [("s", "x", "t")]

    def test_still_load_oblivious(self):
        net = build_parallel_paths()
        tm = TrafficMatrix({("s", "t"): Gbps(30)})
        placement = EcmpRouting().place(net, tm)
        assert placement.congested_pair_fraction() == 1.0

    def test_stretch_is_one(self, gts, gts_tm):
        placement = EcmpRouting().place(gts, gts_tm)
        assert placement.total_latency_stretch() == pytest.approx(1.0)


class TestMplsTe:
    def test_whole_aggregate_on_one_path_when_possible(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(8)})
        placement = MplsTeRouting().place(diamond, tm)
        agg = placement.aggregates[0]
        allocs = placement.paths_for(agg)
        assert len(allocs) == 1
        assert allocs[0].path == ("s", "x", "t")

    def test_takes_next_path_when_shortest_full(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(8), ("x", "t"): Gbps(9)})
        placement = MplsTeRouting().place(diamond, tm)
        by_pair = {agg.pair: agg for agg in placement.aggregates}
        # x->t (9G, placed first by demand order) hogs the x-t link, so
        # the s->t aggregate no longer fits there whole and single-path
        # preference pushes it onto the slow route.
        st_paths = [a.path for a in placement.paths_for(by_pair[("s", "t")])]
        assert st_paths == [("s", "y", "t")]
        assert placement.fits_all_traffic

    def test_splits_when_no_single_path_fits(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(45)})
        placement = MplsTeRouting().place(diamond, tm)
        agg = placement.aggregates[0]
        assert len(placement.paths_for(agg)) == 2
        assert placement.fits_all_traffic

    def test_forces_residual_when_stuck(self, line4):
        tm = TrafficMatrix({("n0", "n3"): Gbps(15)})
        placement = MplsTeRouting().place(line4, tm)
        assert not placement.fits_all_traffic
        assert placement.max_utilization() == pytest.approx(1.5)

    def test_greedy_worse_than_optimal_on_gts(self, gts, gts_tm):
        mpls = MplsTeRouting().place(gts, gts_tm)
        optimal = LatencyOptimalRouting().place(gts, gts_tm)
        worse = (
            not mpls.fits_all_traffic
            or mpls.total_latency_stretch()
            > optimal.total_latency_stretch() - 1e-9
        )
        assert worse

    def test_same_observations_as_b4_on_trap(self):
        """The paper: "the same observations also hold for MPLS-TE" —
        the Figure 5 trap catches the sequential greedy too."""
        from tests.test_b4_pathologies import (
            build_congestion_trap,
            trap_traffic_matrix,
        )

        net = build_congestion_trap()
        tm = trap_traffic_matrix()
        mpls = MplsTeRouting().place(net, tm)
        optimal = LatencyOptimalRouting().place(net, tm)
        assert optimal.fits_all_traffic
        # Greedy either strands traffic or pays extra latency.
        assert (
            not mpls.fits_all_traffic
            or mpls.total_latency_stretch()
            > optimal.total_latency_stretch() + 1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            MplsTeRouting(headroom=1.0)
