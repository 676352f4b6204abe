"""Unit tests for flow decomposition and topology mutation."""

import pytest

from repro.net.graph import Network, Node
from repro.net.mutate import candidate_links, grow_by_llpd, with_added_link
from repro.net.units import Gbps, ms
from repro.routing.decompose import decompose_flow


class TestDecompose:
    def test_single_path(self, line4):
        flows = {("n0", "n1"): 5.0, ("n1", "n2"): 5.0, ("n2", "n3"): 5.0}
        splits = decompose_flow(line4, "n0", "n3", flows, demand_bps=5.0)
        assert len(splits) == 1
        path, fraction = splits[0]
        assert path == ("n0", "n1", "n2", "n3")
        assert fraction == pytest.approx(1.0)

    def test_two_way_split(self, diamond):
        flows = {
            ("s", "x"): 6.0,
            ("x", "t"): 6.0,
            ("s", "y"): 4.0,
            ("y", "t"): 4.0,
        }
        splits = decompose_flow(diamond, "s", "t", flows, demand_bps=10.0)
        fractions = {path: fraction for path, fraction in splits}
        assert fractions[("s", "x", "t")] == pytest.approx(0.6)
        assert fractions[("s", "y", "t")] == pytest.approx(0.4)

    def test_prefers_low_delay_first(self, diamond):
        flows = {
            ("s", "x"): 5.0,
            ("x", "t"): 5.0,
            ("s", "y"): 5.0,
            ("y", "t"): 5.0,
        }
        splits = decompose_flow(diamond, "s", "t", flows, demand_bps=10.0)
        assert splits[0][0] == ("s", "x", "t")

    def test_ignores_noise(self, diamond):
        flows = {
            ("s", "x"): 10.0,
            ("x", "t"): 10.0,
            ("s", "y"): 1e-12,
            ("y", "t"): 1e-12,
        }
        splits = decompose_flow(diamond, "s", "t", flows, demand_bps=10.0)
        assert len(splits) == 1

    def test_rejects_bad_demand(self, diamond):
        with pytest.raises(ValueError):
            decompose_flow(diamond, "s", "t", {}, demand_bps=0.0)


class TestCandidateLinks:
    def test_excludes_existing(self, triangle):
        assert candidate_links(triangle) == []

    def test_square_diagonals(self, square):
        candidates = candidate_links(square)
        assert set(candidates) == {("a", "c"), ("b", "d")}

    def test_max_candidates_prefers_short(self):
        net = Network("spread")
        net.add_node(Node("a", 0.0, 0.0))
        net.add_node(Node("b", 0.0, 1.0))
        net.add_node(Node("c", 0.0, 10.0))
        net.add_node(Node("d", 0.0, 50.0))
        net.add_duplex_link("a", "d", Gbps(10), ms(10))
        net.add_duplex_link("b", "d", Gbps(10), ms(10))
        net.add_duplex_link("c", "d", Gbps(10), ms(10))
        top = candidate_links(net, max_candidates=1)
        assert top == [("a", "b")]


class TestWithAddedLink:
    def test_adds_duplex(self, square):
        grown = with_added_link(square, "a", "c")
        assert grown.has_link("a", "c") and grown.has_link("c", "a")
        assert not square.has_link("a", "c")

    def test_delay_from_geography(self):
        net = Network("geo")
        net.add_node(Node("a", 48.0, 2.0))
        net.add_node(Node("b", 52.0, 13.0))
        net.add_node(Node("c", 50.0, 8.0))
        net.add_duplex_link("a", "c", Gbps(10), ms(3))
        net.add_duplex_link("c", "b", Gbps(10), ms(3))
        grown = with_added_link(net, "a", "b")
        # Paris-Berlin-ish: around 5-6 ms.
        assert 3e-3 < grown.link("a", "b").delay_s < 8e-3


class TestGrowByLlpd:
    def test_grows_llpd(self, rng):
        """Greedy growth must not decrease the score it optimizes."""
        from repro.core.metrics import llpd
        from repro.net.zoo import ring_network

        net = ring_network(8, rng)
        before = llpd(net)
        grown, added = grow_by_llpd(
            net, score=llpd, growth_fraction=0.25, max_candidates=8
        )
        assert len(added) >= 1
        assert llpd(grown) >= before

    def test_respects_growth_fraction(self, rng):
        from repro.net.zoo import ring_network

        net = ring_network(10, rng)
        grown, added = grow_by_llpd(
            net,
            score=lambda n: n.num_links,  # trivially increasing score
            growth_fraction=0.2,
            max_candidates=5,
        )
        assert len(added) == 2  # 20% of 10 physical links
        assert len(grown.duplex_pairs()) == 12

    def test_invalid_fraction(self, triangle):
        with pytest.raises(ValueError):
            grow_by_llpd(triangle, score=lambda n: 0.0, growth_fraction=0.0)

    def test_clique_cannot_grow(self, triangle):
        grown, added = grow_by_llpd(
            triangle, score=lambda n: 0.0, growth_fraction=0.5
        )
        assert added == []
