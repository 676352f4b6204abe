"""B4's array water-filling against the name-keyed oracle.

``B4Routing`` water-fills over link-id arrays; ``legacy_b4_place``
(``tests/oracles.py``) is the name-keyed loop that recounted every link's
users every round.  Every path and every fraction must agree to the
last bit, over seeded graphs, loads (gravity
matrices at 0.5-4x the paper's 1.3 growth-headroom load), headrooms and
path budgets, over every variant of a k = 1 failure fleet, and on a
hand-built input that reaches the numerical-corner branch with tied
tightest links.
"""

import functools
import itertools

import numpy as np
import pytest

from repro import telemetry
from repro.experiments.spec import SchemeSpec, build_scheme
from repro.experiments.workloads import build_zoo_workload
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
from repro.routing import B4Routing, MplsTeRouting, b4
from repro.scenarios import ScenarioGenerator, ScenarioWorkload
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
        ])
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
    def test_bit_identical(self, name, monkeypatch):
        network, base, cache = graph_case(name)
        for scale, headroom, max_paths in itertools.product(
            SCALES, HEADROOMS, MAX_PATHS
        ):
            tm = base.scaled(scale)
            # Small budgets exercise running out of paths.
            monkeypatch.setattr(b4, "MAX_PATHS_PER_AGGREGATE", max_paths)
            fast = B4Routing(headroom, cache=cache).place(network, tm)
            slow = legacy_b4_place(network, tm, headroom, max_paths, cache=cache)
            assert listing(fast) == listing(slow), (scale, headroom, max_paths)


def build_tie_trap():
    """Two links tie for tightest while every step underflows epsilon.

    Aggregate order is p, a, b, c.  Round 1 fills 10 bps: p's private link
    p-v empties, so p advances to its direct detour, leaving
    x = u->v (users a, b) and y = v->w (users b, c) with 1.5 bps each —
    0.75 per user, under ``RATE_EPSILON_BPS``.  A census rebuilt in
    aggregate order meets x first (through a); a census kept up to date
    across rounds would meet y first (through p's old path), so the two
    orders pick different tightest links and strand a different
    aggregate.
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

    @pytest.mark.parametrize("headroom", [0.0, 0.2])
    def test_left_before_any_step_matches_oracle(self, headroom):
        """The first round is a corner round: both aggregates leave their
        shortest path (through u->v, 0.75 bps per user) before a step
        lands on it, fill their 10 bps detour and are force-placed back
        on the shortest path.  That path must come after the detour in
        the allocation, as it does when rates are recorded per step."""
        net = Network("first-round-corner")
        for name in ("s1", "t1", "s2", "t2", "u", "v"):
            net.add_node(Node(name))
        net.add_duplex_link("u", "v", 1.5, ms(1))
        for src, dst in (("s1", "t1"), ("s2", "t2")):
            net.add_duplex_link(src, "u", 1000.0, ms(1))
            net.add_duplex_link("v", dst, 1000.0, ms(1))
            net.add_duplex_link(src, dst, 10.0, ms(10))
        tm = TrafficMatrix({("s1", "t1"): 100.0, ("s2", "t2"): 100.0})
        fast = B4Routing(headroom).place(net, tm)
        assert listing(fast) == listing(legacy_b4_place(net, tm, headroom))
        for agg in fast.aggregates:
            paths = [alloc.path for alloc in fast.paths_for(agg)]
            assert paths == [(agg.src, agg.dst), (agg.src, "u", "v", agg.dst)]


@functools.lru_cache(maxsize=None)
def fleet_case():
    """The fleet ``fleet_k1`` places, at a smaller size: the best-connected
    of three zoo networks (15 nodes, 86 links) and its k = 1 link- and
    node-failure and flash-crowd variants, in fleet order."""
    zoo = build_zoo_workload(
        n_networks=3, n_matrices=1, seed=0, include_named=False
    )
    base = max(zoo.networks, key=lambda item: item.network.num_links)
    fleet = ScenarioGenerator(base, seed=0).fleet(
        link_failure_k=1, node_failure_k=1, surges=2, budget=10
    )
    workload = ScenarioWorkload(base, fleet.specs, seed=0)
    return base, list(zip(fleet.specs, workload.networks))


def traced_work(scheme, network, tm, trace_dir):
    """Place under a fresh trace; return the placement and its
    ``(b4.rounds, b4.advances)``."""
    telemetry.configure(trace_dir)
    try:
        placement = scheme.place(network, tm)
        telemetry.recorder().flush()
        counters = telemetry.load_trace(trace_dir).counters
    finally:
        telemetry.disable()
    return placement, (counters["b4.rounds"], counters["b4.advances"])


class TestFleetParity:
    """Every variant of the fleet, at headroom 0 and 0.2, matches the
    oracle and does exactly the work the name-keyed loop did."""

    #: ``(label, (rounds, advances) at headroom 0, ... at 0.2)`` per
    #: variant, recorded with the name-keyed loop: facts of the algorithm.
    WORK = [
        ("baseline", (82, 166), (91, 194)),
        ("fail[asia-6--asia-7]", (83, 166), (91, 188)),
        ("fail[asia-3--asia-5]", (82, 166), (91, 199)),
        ("fail[asia-0--asia-3]", (81, 164), (96, 193)),
        ("fail[asia-14--asia-5]", (82, 170), (91, 197)),
        ("fail[asia-2--asia-6]", (84, 166), (90, 188)),
        ("fail[asia-5--asia-8]", (82, 172), (91, 201)),
        ("fail[asia-0--asia-4]", (81, 164), (90, 190)),
        ("fail[asia-10--asia-7]", (82, 166), (91, 190)),
        ("fail[asia-0--asia-12]", (83, 166), (97, 196)),
        ("fail[asia-11--asia-13]", (84, 168), (96, 202)),
        ("down[asia-3]", (74, 189), (108, 279)),
        ("down[asia-9]", (60, 128), (60, 134)),
        ("down[asia-11]", (78, 149), (84, 160)),
        ("down[asia-0]", (68, 133), (75, 155)),
        ("down[asia-10]", (71, 144), (80, 168)),
        ("down[asia-1]", (75, 146), (84, 176)),
        ("down[asia-13]", (78, 148), (87, 201)),
        ("down[asia-12]", (74, 146), (89, 193)),
        ("down[asia-6]", (77, 157), (94, 186)),
        ("down[asia-8]", (74, 142), (82, 164)),
        ("surge[x5:2p]", (87, 171), (103, 202)),
        ("surge[x5:2p]", (84, 166), (93, 194)),
    ]

    @pytest.mark.parametrize("column,headroom", [(1, 0.0), (2, 0.2)])
    def test_bit_identical(self, tmp_path, column, headroom):
        work = []
        for index, (spec, item) in enumerate(fleet_case()[1]):
            network, tm = item.network, item.matrices[0]
            cache = KspCache(network)
            fast, counts = traced_work(
                B4Routing(headroom, cache=cache), network, tm,
                tmp_path / str(index),
            )
            slow = legacy_b4_place(network, tm, headroom, cache=cache)
            assert listing(fast) == listing(slow), spec.label()
            work.append((spec.label(), counts))
        assert work == [(row[0], row[column]) for row in self.WORK]


class TestPathBudget:
    """The path budget is a constant, not a knob: a scheme or a spec
    carrying one is rejected before it places anything."""

    @pytest.mark.parametrize("scheme", ["B4", "MPLS-TE"])
    @pytest.mark.parametrize("budget", [0, -3])
    def test_rejected(self, scheme, budget):
        cls = {"B4": B4Routing, "MPLS-TE": MplsTeRouting}[scheme]
        with pytest.raises(TypeError, match="max_paths_per_aggregate"):
            cls(max_paths_per_aggregate=budget)
        spec = SchemeSpec.from_jsonable(
            SchemeSpec(scheme, {"max_paths_per_aggregate": budget})
            .to_jsonable()
        )
        with pytest.raises(TypeError, match="max_paths_per_aggregate"):
            build_scheme(spec, fleet_case()[0])
