"""Unit tests for the synthetic topology zoo."""

import numpy as np
import pytest

from repro.net.paths import shortest_path_delays
from repro.net.zoo import (
    clique_network,
    cogent_like,
    generate_zoo,
    globalcenter_like,
    google_like,
    grid_network,
    gts_like,
    ladder_network,
    mesh_network,
    multi_continent_network,
    network_diameter_s,
    ring_network,
    star_network,
    tree_network,
)


def is_connected(network) -> bool:
    source = network.node_names[0]
    return len(shortest_path_delays(network, source)) == network.num_nodes - 1


class TestFamilies:
    def test_tree_has_n_minus_one_physical_links(self, rng):
        net = tree_network(15, rng)
        assert net.num_nodes == 15
        assert net.num_links == 2 * 14  # duplex
        assert is_connected(net)

    def test_star_shape(self, rng):
        net = star_network(9, rng)
        hub = net.node_names[0]
        assert net.degree(hub) == 8
        assert all(net.degree(n) == 1 for n in net.node_names[1:])

    def test_ring_all_degree_two(self, rng):
        net = ring_network(10, rng)
        assert all(net.degree(n) == 2 for n in net.node_names)
        assert is_connected(net)

    def test_ladder(self, rng):
        net = ladder_network(5, rng)
        assert net.num_nodes == 10
        assert is_connected(net)

    def test_grid_structure(self, rng):
        net = grid_network(3, 4, rng, diagonal_fraction=0.0)
        assert net.num_nodes == 12
        # 3x4 grid: 3*3 horizontal + 2*4 vertical physical links.
        assert net.num_links == 2 * (9 + 8)
        assert is_connected(net)

    def test_grid_diagonals_add_links(self, rng):
        base = grid_network(4, 4, np.random.default_rng(1), diagonal_fraction=0.0)
        diag = grid_network(4, 4, np.random.default_rng(1), diagonal_fraction=1.0)
        assert diag.num_links > base.num_links

    def test_mesh_connected_and_denser_than_tree(self, rng):
        net = mesh_network(20, rng, neighbors=3)
        assert is_connected(net)
        assert net.num_links > 2 * 19

    def test_clique_complete(self, rng):
        net = clique_network(6, rng)
        assert net.num_links == 6 * 5

    def test_multi_continent_connected(self, rng):
        net = multi_continent_network(rng, nodes_per_continent=6, n_continents=2)
        assert is_connected(net)
        assert net.num_nodes == 12


class TestNamedReplicas:
    def test_gts_like_deterministic(self):
        a, b = gts_like(), gts_like()
        assert a.num_links == b.num_links
        assert sorted(a.node_names) == sorted(b.node_names)

    def test_gts_like_is_gridlike(self):
        net = gts_like()
        assert net.num_nodes == 24
        assert is_connected(net)

    def test_cogent_like_spans_two_continents(self):
        net = cogent_like()
        # Two continents worth of nodes with distinct region prefixes.
        prefixes = {name.split("-")[0] for name in net.node_names}
        assert len(prefixes) >= 2

    def test_globalcenter_like_is_clique(self):
        net = globalcenter_like()
        n = net.num_nodes
        assert net.num_links == n * (n - 1)

    def test_google_like_high_diversity(self):
        net = google_like()
        assert is_connected(net)
        # Very dense: mean degree well above a grid's.
        assert net.num_links / net.num_nodes > 4


class TestZooEnsemble:
    def test_deterministic(self):
        zoo_a = generate_zoo(10, seed=3)
        zoo_b = generate_zoo(10, seed=3)
        assert [n.name for n in zoo_a] == [n.name for n in zoo_b]
        assert [n.num_links for n in zoo_a] == [n.num_links for n in zoo_b]

    def test_count_and_named(self):
        zoo = generate_zoo(8, seed=0, include_named=True)
        assert len(zoo) == 8 + 3
        names = {n.name for n in zoo}
        assert "gts-like" in names and "cogent-like" in names

    def test_without_named(self):
        assert len(generate_zoo(5, seed=0, include_named=False)) == 5

    def test_all_connected(self):
        for net in generate_zoo(14, seed=7):
            assert is_connected(net), net.name

    def test_rejects_zero_networks(self):
        with pytest.raises(ValueError):
            generate_zoo(0)

    def test_diameters_exceed_10ms(self):
        # The paper filters to networks with diameter > 10 ms; our zoo
        # should (almost) always satisfy this by construction.
        zoo = generate_zoo(10, seed=1, include_named=False)
        diameters = [network_diameter_s(net) for net in zoo]
        assert sum(1 for d in diameters if d > 10e-3) >= 8


class TestDiameter:
    def test_line(self, line4):
        assert network_diameter_s(line4) == pytest.approx(3e-3)

    def test_triangle(self, triangle):
        assert network_diameter_s(triangle) == pytest.approx(1e-3)
