"""Unit tests for the network graph model."""

import pytest

from repro.net.graph import Link, Network, Node
from repro.net.mutate import ScenarioInfeasible, without_failures
from repro.net.units import Gbps, ms


class TestLink:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Link("a", "a", Gbps(1), ms(1))

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Link("a", "b", 0.0, ms(1))

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Link("a", "b", -1.0, ms(1))

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay"):
            Link("a", "b", Gbps(1), -ms(1))

    def test_zero_delay_allowed(self):
        link = Link("a", "b", Gbps(1), 0.0)
        assert link.delay_s == 0.0

    def test_key(self):
        assert Link("a", "b", 1.0, 0.0).key == ("a", "b")

    def test_reversed_swaps_endpoints(self):
        link = Link("a", "b", Gbps(1), ms(2))
        rev = link.reversed()
        assert rev.src == "b" and rev.dst == "a"
        assert rev.capacity_bps == link.capacity_bps
        assert rev.delay_s == link.delay_s


class TestNetworkConstruction:
    def test_add_node_and_lookup(self):
        net = Network("n")
        net.add_node(Node("a", 1.0, 2.0))
        assert net.has_node("a")
        assert net.node("a").lat_deg == 1.0
        assert "a" in net

    def test_add_link_requires_nodes(self):
        net = Network("n")
        net.add_node(Node("a"))
        with pytest.raises(KeyError):
            net.add_link(Link("a", "b", Gbps(1), ms(1)))

    def test_duplicate_link_rejected(self):
        net = Network("n")
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        net.add_link(Link("a", "b", Gbps(1), ms(1)))
        with pytest.raises(ValueError, match="duplicate"):
            net.add_link(Link("a", "b", Gbps(2), ms(2)))

    def test_duplex_adds_both_directions(self):
        net = Network("n")
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        net.add_duplex_link("a", "b", Gbps(1), ms(1))
        assert net.has_link("a", "b")
        assert net.has_link("b", "a")
        assert net.num_links == 2

    def test_remove_missing_link_raises(self):
        net = Network("n")
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        with pytest.raises(ScenarioInfeasible):
            without_failures(net, [("a", "b")])


class TestNetworkQueries:
    def test_counts(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_links == 6

    def test_successors(self, triangle):
        assert set(triangle.successors("a")) == {"b", "c"}

    def test_out_links(self, triangle):
        out = triangle.out_links("a")
        assert {link.dst for link in out} == {"b", "c"}
        assert all(link.src == "a" for link in out)

    def test_degree(self, triangle, line4):
        assert triangle.degree("a") == 2
        assert line4.degree("n0") == 1
        assert line4.degree("n1") == 2

    def test_duplex_pairs(self, square):
        pairs = square.duplex_pairs()
        assert len(pairs) == 4
        assert all(u < v for u, v in pairs)

    def test_total_capacity(self, triangle):
        assert triangle.total_capacity_bps() == pytest.approx(6 * Gbps(10))


class TestDerivedNetworks:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.add_node(Node("d"))
        clone.add_duplex_link("a", "d", Gbps(1), ms(1))
        assert not triangle.has_node("d")
        assert triangle.num_links == 6

    def test_with_capacity_factor(self, triangle):
        scaled = triangle.with_capacity_factor(0.5)
        assert scaled.link("a", "b").capacity_bps == pytest.approx(Gbps(5))
        # Delay untouched.
        assert scaled.link("a", "b").delay_s == triangle.link("a", "b").delay_s

    def test_with_capacity_factor_rejects_nonpositive(self, triangle):
        with pytest.raises(ValueError):
            triangle.with_capacity_factor(0.0)

    def test_without_duplex_link(self, triangle):
        reduced = without_failures(triangle, [("a", "b")])
        assert not reduced.has_link("a", "b")
        assert not reduced.has_link("b", "a")
        assert triangle.has_link("a", "b")
