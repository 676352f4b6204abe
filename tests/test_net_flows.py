"""Unit tests for max-flow."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flows import max_flow_bps
from repro.net.graph import Network, Node
from repro.net.units import Gbps, ms
from repro.net.zoo import generate_zoo
from tests.oracles import legacy_max_flow_bps


class TestMaxFlow:
    def test_single_path(self, line4):
        assert max_flow_bps(line4, "n0", "n3") == pytest.approx(Gbps(10))

    def test_parallel_paths_add(self, diamond):
        assert max_flow_bps(diamond, "s", "t") == pytest.approx(Gbps(50))

    def test_triangle(self, triangle):
        # Direct link plus two-hop path.
        assert max_flow_bps(triangle, "a", "b") == pytest.approx(Gbps(20))

    def test_disconnected_zero(self):
        net = Network("disc")
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        assert max_flow_bps(net, "a", "b") == 0.0

    def test_same_endpoints_rejected(self, triangle):
        with pytest.raises(ValueError):
            max_flow_bps(triangle, "a", "a")

    def test_bottleneck_in_middle(self):
        net = Network("bottleneck")
        for name in "abcd":
            net.add_node(Node(name))
        net.add_duplex_link("a", "b", Gbps(100), ms(1))
        net.add_duplex_link("b", "c", Gbps(1), ms(1))
        net.add_duplex_link("c", "d", Gbps(100), ms(1))
        assert max_flow_bps(net, "a", "d") == pytest.approx(Gbps(1))

    def test_restricted_links(self, diamond):
        # Restricting to the fast path's links excludes the fat path.
        flow = max_flow_bps(
            diamond, "s", "t", restrict_links=[("s", "x"), ("x", "t")]
        )
        assert flow == pytest.approx(Gbps(10))

    def test_restricted_links_disconnected(self, diamond):
        assert max_flow_bps(diamond, "s", "t", restrict_links=[("s", "x")]) == 0.0

    def test_directionality(self):
        net = Network("one-way")
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        from repro.net.graph import Link

        net.add_link(Link("a", "b", Gbps(5), ms(1)))
        assert max_flow_bps(net, "a", "b") == pytest.approx(Gbps(5))
        assert max_flow_bps(net, "b", "a") == 0.0


_ZOO = generate_zoo(6, seed=0, include_named=True)


class TestRestrictedMaxFlow:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_full_scan(self, data):
        """Building the residual graph from the restricted links alone
        (in any order, with repeats and keys the network lacks) gives the
        full-scan answer bit for bit."""
        network = data.draw(st.sampled_from(_ZOO), label="network")
        keys = [link.key for link in network.links()]
        subset = data.draw(st.lists(st.sampled_from(keys)), label="links")
        if data.draw(st.booleans(), label="foreign key"):
            subset.append(("nowhere", keys[0][0]))
        names = network.node_names
        src = data.draw(st.sampled_from(names), label="src")
        dst = data.draw(
            st.sampled_from([name for name in names if name != src]),
            label="dst",
        )
        assert max_flow_bps(
            network, src, dst, restrict_links=subset
        ) == legacy_max_flow_bps(network, src, dst, restrict_links=subset)
