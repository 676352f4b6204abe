"""Property-based tests on routing-scheme invariants.

These run every scheme over randomized (network, traffic-matrix)
instances and check the contracts no placement may violate: fractions sum
to one, paths connect the right endpoints, load accounting is consistent,
and the optimizing schemes respect capacity whenever the traffic is
routable at all.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.net.graph import Network, Node
from repro.net.paths import path_links
from repro.net.units import Gbps
from repro.routing import (
    B4Routing,
    EcmpRouting,
    LatencyOptimalRouting,
    MinMaxRouting,
    MplsTeRouting,
    ShortestPathRouting,
)
from repro.routing.base import OVERLOAD_TOLERANCE
from repro.tm.matrix import TrafficMatrix
from tests.test_properties import random_networks

SCHEME_FACTORIES = [
    ShortestPathRouting,
    EcmpRouting,
    B4Routing,
    MplsTeRouting,
    MinMaxRouting,
    LatencyOptimalRouting,
]


@st.composite
def network_and_tm(draw):
    """A connected random network plus a random traffic matrix on it."""
    net = draw(random_networks(min_nodes=4, max_nodes=7))
    names = net.node_names
    n_pairs = draw(st.integers(2, 8))
    demands = {}
    for _ in range(n_pairs):
        i = draw(st.integers(0, len(names) - 1))
        j = draw(st.integers(0, len(names) - 1))
        if i == j:
            continue
        demands[(names[i], names[j])] = draw(
            st.floats(1e6, 5e9)
        )
    if not demands:
        demands[(names[0], names[1])] = 1e9
    return net, TrafficMatrix(demands)


def knife_edge_star():
    """Three 1 Gb/s spokes on ``n0`` and 1 b/s more than one spoke holds
    from ``n0`` to ``n1``: ``max_scale_factor`` is 0.999999999, an overload
    within :data:`OVERLOAD_TOLERANCE`."""
    net = Network("knife-edge-star")
    for i in range(4):
        net.add_node(Node(f"n{i}"))
    for i in range(1, 4):
        net.add_duplex_link("n0", f"n{i}", Gbps(1), 0.015625)
    return net, TrafficMatrix({("n0", "n1"): 1_000_000_001.0})


class TestPlacementContracts:
    @given(network_and_tm(), st.sampled_from(range(len(SCHEME_FACTORIES))))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fractions_and_endpoints(self, instance, scheme_index):
        net, tm = instance
        scheme = SCHEME_FACTORIES[scheme_index]()
        placement = scheme.place(net, tm)
        aggregates = {agg.pair for agg in placement.aggregates}
        expected = {agg.pair for agg in tm.aggregates()}
        assert aggregates == expected
        for agg in placement.aggregates:
            allocs = placement.paths_for(agg)
            total = sum(a.fraction for a in allocs)
            assert total == pytest.approx(1.0, abs=1e-6)
            for alloc in allocs:
                assert alloc.path[0] == agg.src
                assert alloc.path[-1] == agg.dst
                # Paths only use links that exist.
                for u, v in path_links(alloc.path):
                    assert net.has_link(u, v)

    @given(network_and_tm())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_load_accounting_consistent(self, instance):
        net, tm = instance
        placement = ShortestPathRouting().place(net, tm)
        loads = placement.link_loads_bps()
        # Total bit-rate over all links equals sum of demand * hops.
        total_load = sum(loads.values())
        expected = 0.0
        for agg in placement.aggregates:
            for alloc in placement.paths_for(agg):
                expected += (
                    agg.demand_bps * alloc.fraction * (len(alloc.path) - 1)
                )
        assert total_load == pytest.approx(expected, rel=1e-9)

    @given(network_and_tm())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @example(knife_edge_star())
    def test_optimal_respects_capacity_when_routable(self, instance):
        net, tm = instance
        from repro.tm.scale import max_scale_factor

        lam = max_scale_factor(net, tm)
        placement = LatencyOptimalRouting().place(net, tm)
        if lam * (1.0 + OVERLOAD_TOLERANCE) >= 1.0:
            # Routable within the documented overload tolerance: the LP
            # must fit it.
            assert placement.max_utilization() <= 1.0 + 1e-4
            assert placement.fits_all_traffic
        else:
            # Unroutable: overload must be reported, not hidden.
            assert not placement.fits_all_traffic

    @given(network_and_tm())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_minmax_never_beaten_on_utilization(self, instance):
        """No scheme may achieve lower max utilization than MinMax."""
        net, tm = instance
        minmax_scheme = MinMaxRouting()
        minmax = minmax_scheme.place(net, tm).max_utilization()
        for factory in (ShortestPathRouting, B4Routing, LatencyOptimalRouting):
            other = factory().place(net, tm).max_utilization()
            assert minmax <= other + 1e-4

    @given(network_and_tm())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_stretch_at_least_one(self, instance):
        net, tm = instance
        for factory in SCHEME_FACTORIES:
            placement = factory().place(net, tm)
            assert placement.total_latency_stretch() >= 1.0 - 1e-9
            assert placement.max_path_stretch() >= 1.0 - 1e-9
