"""Reproductions of the paper's B4 pathologies (its Figures 5 and 6).

These are the paper's two explanations for why a greedy scheme fails on
path-diverse topologies:

* **Figure 5 (congestion trap)**: node V has exactly two exits.  Many blue
  aggregates fill link 1 eastbound (shared with green's shortest path)
  while many red aggregates fill link 2 westbound (green's only
  alternative).  Green, outnumbered in every fair-share round, is left
  stranded — while an optimal placement would move red to a fractionally
  longer path through G and fit everyone.
* **Figure 6 (needless detour)**: when a shared bottleneck fills, B4
  spills *both* competing aggregates to their next-shortest paths even if
  one of them faces a much longer detour; the optimum detours only the
  cheap-to-move aggregate.
"""

import pytest

from repro.net.graph import Network, Node
from repro.net.paths import path_links
from repro.net.units import Gbps, ms
from repro.routing import B4Routing, LatencyOptimalRouting
from repro.tm import TrafficMatrix

N_BLUE = 6
N_RED = 6


def build_congestion_trap() -> Network:
    """A miniature of the paper's Figure 5 (the GTS region around V).

    V's only exits are link 1 (v-m1) and link 2 (v-m2).  Blue aggregates
    flow b_i -> m2 -> v -> m1 -> g (filling link 1 eastbound), red
    aggregates flow r_i -> m1 -> v -> m2 -> w (filling link 2 westbound),
    and green (v -> g) needs one of those two directed links.
    """
    net = Network("fig5-trap")
    for name in ("v", "m1", "m2", "g", "w"):
        net.add_node(Node(name))
    net.add_duplex_link("v", "m1", Gbps(10), ms(1))  # link 1
    net.add_duplex_link("v", "m2", Gbps(10), ms(1))  # link 2
    net.add_duplex_link("m1", "g", Gbps(40), ms(1))
    net.add_duplex_link("m2", "w", Gbps(40), ms(1))
    # The "fractionally longer path through G": g-w closes the loop.
    net.add_duplex_link("g", "w", Gbps(40), ms(2.5))
    for i in range(N_BLUE):
        net.add_node(Node(f"b{i}"))
        net.add_duplex_link(f"b{i}", "m2", Gbps(40), ms(1))
    for i in range(N_RED):
        net.add_node(Node(f"r{i}"))
        net.add_duplex_link(f"r{i}", "m1", Gbps(40), ms(1))
    return net


def trap_traffic_matrix() -> TrafficMatrix:
    demands = {("v", "g"): Gbps(4)}
    for i in range(N_BLUE):
        demands[(f"b{i}", "g")] = Gbps(1.8)
    for i in range(N_RED):
        demands[(f"r{i}", "w")] = Gbps(1.8)
    return TrafficMatrix(demands)


class TestFigure5CongestionTrap:
    def setup_method(self):
        self.net = build_congestion_trap()
        self.tm = trap_traffic_matrix()

    def test_green_shortest_paths_cross_v_links(self):
        """Sanity: the topology realizes the paper's geometry."""
        from repro.net.paths import KspCache

        cache = KspCache(self.net)
        assert cache.shortest("b0", "g") == ("b0", "m2", "v", "m1", "g")
        assert cache.shortest("r0", "w") == ("r0", "m1", "v", "m2", "w")
        assert cache.shortest("v", "g") == ("v", "m1", "g")

    def test_b4_strands_green(self):
        placement = B4Routing().place(self.net, self.tm)
        assert not placement.fits_all_traffic
        by_pair = {agg.pair: agg for agg in placement.aggregates}
        green = by_pair[("v", "g")]
        saturated = set(placement.saturated_links())
        assert any(
            key in saturated
            for alloc in placement.paths_for(green)
            for key in path_links(alloc.path)
        )
        assert placement.congested_pair_fraction() > 0.0

    def test_optimal_fits_everyone(self):
        placement = LatencyOptimalRouting().place(self.net, self.tm)
        assert placement.fits_all_traffic
        assert placement.max_utilization() <= 1.0 + 1e-4
        # Green rides link 1 in the optimal placement.
        by_pair = {agg.pair: agg for agg in placement.aggregates}
        green_paths = placement.paths_for(by_pair[("v", "g")])
        assert any(("v", "m1") in zip(a.path, a.path[1:]) for a in green_paths)

    def test_optimal_detours_red_through_g(self):
        """The paper: "an optimal placement would move red traffic
        aggregates onto the fractionally longer path through G"."""
        placement = LatencyOptimalRouting().place(self.net, self.tm)
        red_via_g = 0.0
        for agg in placement.aggregates:
            if not agg.src.startswith("r"):
                continue
            red_via_g += sum(
                alloc.fraction
                for alloc in placement.paths_for(agg)
                if "g" in alloc.path
            )
        assert red_via_g > 0.1


def build_unequal_detours() -> Network:
    """The paper's Figure 6: two aggregates share a bottleneck; red has a
    cheap second path (+1 ms), blue's detour is much longer."""
    net = Network("fig6-detour")
    for name in ("s1", "s2", "m", "t", "c", "f"):
        net.add_node(Node(name))
    net.add_duplex_link("s1", "m", Gbps(20), ms(1))
    net.add_duplex_link("s2", "m", Gbps(20), ms(1))
    net.add_duplex_link("m", "t", Gbps(10), ms(1))  # shared bottleneck
    # Red (s1) has a cheap alternate, +1 ms.
    net.add_duplex_link("s1", "c", Gbps(20), ms(1))
    net.add_duplex_link("c", "t", Gbps(20), ms(2))
    # Blue (s2) only has long detours.
    net.add_duplex_link("s2", "f", Gbps(20), ms(5))
    net.add_duplex_link("f", "t", Gbps(20), ms(7))
    return net


class TestFigure6UnequalDetours:
    def setup_method(self):
        self.net = build_unequal_detours()
        self.tm = TrafficMatrix({("s1", "t"): Gbps(8), ("s2", "t"): Gbps(8)})

    def blue_off_shortest(self, placement) -> float:
        by_pair = {agg.pair: agg for agg in placement.aggregates}
        return sum(
            alloc.fraction
            for alloc in placement.paths_for(by_pair[("s2", "t")])
            if alloc.path != ("s2", "m", "t")
        )

    def test_b4_detours_blue(self):
        """B4 splits the bottleneck equally, pushing a large share of
        blue off its shortest path."""
        placement = B4Routing().place(self.net, self.tm)
        assert self.blue_off_shortest(placement) > 0.3

    def test_optimal_keeps_blue_on_shortest(self):
        """The optimum gives the bottleneck to blue and detours red, whose
        alternative costs only +1 ms."""
        placement = LatencyOptimalRouting().place(self.net, self.tm)
        assert self.blue_off_shortest(placement) < 0.05
        by_pair = {agg.pair: agg for agg in placement.aggregates}
        red_detour = sum(
            alloc.fraction
            for alloc in placement.paths_for(by_pair[("s1", "t")])
            if "c" in alloc.path
        )
        assert red_detour > 0.7
        assert placement.fits_all_traffic

    def test_b4_latency_worse_than_optimal(self):
        b4 = B4Routing().place(self.net, self.tm)
        optimal = LatencyOptimalRouting().place(self.net, self.tm)
        assert (
            optimal.total_latency_stretch()
            < b4.total_latency_stretch() - 0.05
        )
