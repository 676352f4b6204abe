"""B4's incremental water-filling against the per-round-census oracle.

``B4Routing`` keeps its per-link user census up to date instead of
recounting it every round; ``legacy_b4_place`` (``tests/oracles.py``) is
the loop that recounted it.  Every path, every fraction and every unplaced
remainder must agree to the last bit, over seeded graphs, loads (gravity
matrices at 0.5-4x the paper's 1.3 growth-headroom load), headrooms and
path budgets, and on a hand-built input that reaches the numerical-corner
branch with tied tightest links.
"""

import functools
import itertools

import numpy as np
import pytest

from repro.net.graph import Network, Node
from repro.net.ingest import synthesize_internet_like
from repro.net.paths import KspCache
from repro.net.units import ms
from repro.net.zoo import (
    grid_network,
    ladder_network,
    mesh_network,
    multi_continent_network,
    ring_network,
    star_network,
)
from repro.routing import B4Routing, b4
from repro.tm import gravity_traffic_matrix, scale_to_growth_headroom
from repro.tm.matrix import TrafficMatrix
from tests.oracles import legacy_b4_place

SCALES = (0.5, 1.0, 2.0, 4.0)
HEADROOMS = (0.0, 0.1, 0.3)
MAX_PATHS = (1, 3, 25)

GRAPHS = {
    "internet-12": lambda: synthesize_internet_like(12, seed=1),
    "internet-16": lambda: synthesize_internet_like(16, seed=2),
    "internet-14": lambda: synthesize_internet_like(14, seed=3),
    "ring-10": lambda: ring_network(10, np.random.default_rng(4)),
    "ladder-5": lambda: ladder_network(5, np.random.default_rng(5)),
    "grid-3x4": lambda: grid_network(3, 4, np.random.default_rng(6)),
    "mesh-12": lambda: mesh_network(12, np.random.default_rng(7), neighbors=3),
    "star-8": lambda: star_network(8, np.random.default_rng(8)),
    "continents-2x5": lambda: multi_continent_network(
        np.random.default_rng(9), nodes_per_continent=5
    ),
}


def listing(placement):
    return [
        (agg.src, agg.dst, [
            (alloc.path, alloc.fraction.hex())
            for alloc in placement.paths_for(agg)
        ], placement.unplaced_bps.get(agg, 0.0).hex())
        for agg in placement.aggregates
    ]


@functools.lru_cache(maxsize=None)
def graph_case(name):
    network = GRAPHS[name]()
    tm = gravity_traffic_matrix(network, np.random.default_rng(0))
    return network, scale_to_growth_headroom(network, tm), KspCache(network)


class TestMatchesOracle:
    """9 graphs x 4 loads x 3 headrooms x 3 path budgets = 324 cases."""

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_bit_identical(self, name):
        network, base, cache = graph_case(name)
        for scale, headroom, max_paths in itertools.product(
            SCALES, HEADROOMS, MAX_PATHS
        ):
            tm = base.scaled(scale)
            fast = B4Routing(headroom, max_paths, cache=cache).place(network, tm)
            slow = legacy_b4_place(network, tm, headroom, max_paths, cache=cache)
            assert listing(fast) == listing(slow), (scale, headroom, max_paths)


def build_tie_trap():
    """Two links tie for tightest while every step underflows epsilon.

    Aggregate order is p, a, b, c.  Round 1 fills 10 bps: p's private link
    p-v empties, so p advances to its direct detour, leaving
    x = u->v (users a, b) and y = v->w (users b, c) with 1.5 bps each —
    0.75 per user, under ``RATE_EPSILON_BPS``.  A census rebuilt in
    aggregate order meets x first (through a); the maintained census met
    y first (through p's old path), so the two orders pick different
    tightest links and strand a different aggregate.
    """
    net = Network("tie-trap")
    for name in ("u", "v", "w", "p", "pd", "a", "ad", "b", "bd", "c", "cd"):
        net.add_node(Node(name))
    big = 1000.0
    net.add_duplex_link("u", "v", 21.5, ms(1))  # x: 21.5 - 2 * 10 = 1.5
    net.add_duplex_link("v", "w", 31.5, ms(1))  # y: 31.5 - 3 * 10 = 1.5
    net.add_duplex_link("p", "v", 10.0, ms(1))
    net.add_duplex_link("w", "pd", big, ms(1))
    net.add_duplex_link("a", "u", big, ms(1))
    net.add_duplex_link("v", "ad", big, ms(1))
    net.add_duplex_link("b", "u", big, ms(1))
    net.add_duplex_link("w", "bd", big, ms(1))
    net.add_duplex_link("c", "v", big, ms(1))
    net.add_duplex_link("w", "cd", big, ms(1))
    for src, dst in (("p", "pd"), ("a", "ad"), ("b", "bd"), ("c", "cd")):
        net.add_duplex_link(src, dst, big, ms(10))
    tm = TrafficMatrix(
        {("p", "pd"): 100.0, ("a", "ad"): 100.0, ("b", "bd"): 100.0,
         ("c", "cd"): 100.0}
    )
    return net, tm


class TestNumericalCorner:
    def test_tied_corner_matches_oracle(self, monkeypatch):
        ties = []
        real = b4._tightest_link

        def spy(active, residual):
            users = b4._census(active)
            ratios = [residual[key] / count for key, count in users.items()]
            ties.append(ratios.count(min(ratios)))
            return real(active, residual)

        monkeypatch.setattr(b4, "_tightest_link", spy)
        network, tm = build_tie_trap()
        fast = B4Routing().place(network, tm)
        assert listing(fast) == listing(legacy_b4_place(network, tm))
        assert ties and ties[0] >= 2
        # The rebuilt census breaks the tie at x: a and b advance, c keeps
        # y to itself for one more 1.5 bps step before it advances too.
        by_pair = {agg.pair: agg for agg in fast.aggregates}
        c_paths = fast.paths_for(by_pair[("c", "cd")])
        assert c_paths[0].path == ("c", "v", "w", "cd")
        assert c_paths[0].fraction == 11.5 / 100.0
