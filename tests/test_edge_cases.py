"""Edge cases across the library: degenerate networks and inputs."""

import numpy as np
import pytest

from repro.net.graph import Link, Network, Node
from repro.net.units import Gbps, ms
from repro.routing import (
    B4Routing,
    LatencyOptimalRouting,
    MinMaxRouting,
    ShortestPathRouting,
)
from repro.routing.base import Placement
from repro.routing.optimal import solve_iterative_latency
from repro.tm import TrafficMatrix, gravity_traffic_matrix, max_scale_factor


def two_node_network() -> Network:
    net = Network("pair")
    net.add_node(Node("a"))
    net.add_node(Node("b"))
    net.add_duplex_link("a", "b", Gbps(10), ms(1))
    return net


class TestDegenerateNetworks:
    def test_two_node_routing(self):
        net = two_node_network()
        tm = TrafficMatrix({("a", "b"): Gbps(3)})
        for scheme in (ShortestPathRouting(), B4Routing(),
                       MinMaxRouting(), LatencyOptimalRouting()):
            placement = scheme.place(net, tm)
            agg = placement.aggregates[0]
            assert placement.paths_for(agg)[0].path == ("a", "b")
            assert placement.total_latency_stretch() == pytest.approx(1.0)

    def test_two_node_scale_factor(self):
        net = two_node_network()
        tm = TrafficMatrix({("a", "b"): Gbps(5)})
        assert max_scale_factor(net, tm) == pytest.approx(2.0)

    def test_zero_delay_links_route(self):
        net = Network("metro")
        for name in "abc":
            net.add_node(Node(name))
        net.add_duplex_link("a", "b", Gbps(10), 0.0)
        net.add_duplex_link("b", "c", Gbps(10), 0.0)
        tm = TrafficMatrix({("a", "c"): Gbps(1)})
        placement = LatencyOptimalRouting().place(net, tm)
        assert placement.fits_all_traffic
        # Zero shortest delay: stretch degrades gracefully to 1.
        assert placement.total_latency_stretch() == pytest.approx(1.0)

    def test_asymmetric_directed_network(self):
        """One-way links: routing must respect direction."""
        net = Network("one-way-ring")
        for name in "abc":
            net.add_node(Node(name))
        net.add_link(Link("a", "b", Gbps(10), ms(1)))
        net.add_link(Link("b", "c", Gbps(10), ms(1)))
        net.add_link(Link("c", "a", Gbps(10), ms(1)))
        tm = TrafficMatrix({("b", "a"): Gbps(1)})
        placement = ShortestPathRouting().place(net, tm)
        agg = placement.aggregates[0]
        assert placement.paths_for(agg)[0].path == ("b", "c", "a")


class TestEmptyAndTinyInputs:
    def test_empty_placement_metrics(self, triangle):
        placement = Placement(triangle, {})
        assert placement.congested_pair_fraction() == 0.0
        assert placement.total_latency_stretch() == pytest.approx(1.0)
        assert placement.max_path_stretch() == pytest.approx(1.0)
        assert placement.max_utilization() == 0.0
        assert placement.total_weighted_delay_s() == 0.0
        assert placement.fits_all_traffic

    def test_single_aggregate_gravity(self):
        net = two_node_network()
        tm = gravity_traffic_matrix(net, np.random.default_rng(0))
        assert len(tm) == 2  # both directions

    def test_minute_demand_routes(self, gts):
        # Demands far below a bit per second are dropped as trivial.
        tm = TrafficMatrix({("n0-0", "n3-5"): 0.5})
        assert tm.aggregates() == []

    def test_tiny_but_nontrivial_demand(self, gts):
        tm = TrafficMatrix({("n0-0", "n3-5"): 10.0})
        placement = LatencyOptimalRouting().place(gts, tm)
        assert placement.fits_all_traffic
        assert placement.max_utilization() < 1e-8


class TestHeadroomExtremes:
    def test_tiny_headroom_equivalent_to_none(self, diamond):
        tm = TrafficMatrix({("s", "t"): Gbps(5)})
        none = LatencyOptimalRouting().place(diamond, tm)
        tiny = LatencyOptimalRouting(headroom=1e-6).place(diamond, tm)
        assert tiny.total_latency_stretch() == pytest.approx(
            none.total_latency_stretch()
        )

    def test_huge_headroom_forces_overload_report(self, diamond):
        # 95% headroom leaves 2.5G of scaled s-t capacity for 5G demand.
        tm = TrafficMatrix({("s", "t"): Gbps(5)})
        scheme = LatencyOptimalRouting(headroom=0.95)
        placement = scheme.place(diamond, tm)
        # The optimizer's scaled view reports the overload ...
        result, _ = solve_iterative_latency(scheme.routed(diamond), tm)
        assert not result.fits
        assert result.max_overload > 1.0
        # ... but real capacities are never exceeded, and the placement
        # is judged on them: it fits.
        assert placement.max_utilization() <= 1.0
        assert placement.fits_all_traffic
