"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.multiplexing import exceedance_probability, transient_queue_delay_s
from repro.core.prediction import MeanRatePredictor
from repro.net.flows import max_flow_bps
from repro.net.geo import great_circle_km
from repro.net.graph import Network, Node
from repro.net.paths import (
    KspCache,
    is_simple,
    k_shortest_paths,
    path_bottleneck_bps,
    path_delay_s,
    shortest_path,
)
from repro.net.units import Gbps
from repro.tm.matrix import TrafficMatrix

# ----------------------------------------------------------------------
# Random-network strategy
# ----------------------------------------------------------------------


@st.composite
def random_networks(draw, min_nodes=3, max_nodes=8):
    """Connected random networks with random capacities and delays."""
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"n{i}" for i in range(n)]
    net = Network("hypothesis")
    for name in names:
        net.add_node(Node(name))
    # Random spanning tree guarantees connectivity.
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        capacity = draw(st.sampled_from([Gbps(1), Gbps(10), Gbps(40)]))
        delay = draw(st.floats(1e-4, 2e-2))
        net.add_duplex_link(names[i], names[j], capacity, delay)
    # Extra random links.
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j and not net.has_link(names[i], names[j]):
            capacity = draw(st.sampled_from([Gbps(1), Gbps(10)]))
            delay = draw(st.floats(1e-4, 2e-2))
            net.add_duplex_link(names[i], names[j], capacity, delay)
    return net


class TestPathProperties:
    @given(random_networks())
    @settings(max_examples=30, deadline=None)
    def test_shortest_path_is_lower_bound_of_ksp(self, net):
        names = net.node_names
        src, dst = names[0], names[-1]
        paths = []
        for i, path in enumerate(k_shortest_paths(net, src, dst)):
            paths.append(path)
            if i >= 4:
                break
        assert paths, "spanning tree guarantees connectivity"
        delays = [path_delay_s(net, p) for p in paths]
        assert delays == sorted(delays)
        assert all(is_simple(p) for p in paths)
        assert len(set(paths)) == len(paths)
        assert paths[0] == shortest_path(net, src, dst)

    @given(random_networks())
    @settings(max_examples=30, deadline=None)
    def test_ksp_cache_equals_generator(self, net):
        names = net.node_names
        src, dst = names[0], names[1]
        cache = KspCache(net)
        direct = []
        for i, path in enumerate(k_shortest_paths(net, src, dst)):
            direct.append(path)
            if i >= 5:
                break
        assert cache.get(src, dst, 6) == direct

    @given(random_networks())
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality_of_shortest_delays(self, net):
        from repro.net.paths import shortest_path_delays

        names = net.node_names
        d_from = {name: shortest_path_delays(net, name) for name in names}
        for a in names:
            for b in names:
                for c in names:
                    if len({a, b, c}) < 3:
                        continue
                    assert (
                        d_from[a][c]
                        <= d_from[a][b] + d_from[b][c] + 1e-12
                    )


class TestFlowProperties:
    @given(random_networks())
    @settings(max_examples=25, deadline=None)
    def test_max_flow_bounded_by_cuts(self, net):
        names = net.node_names
        src, dst = names[0], names[-1]
        flow = max_flow_bps(net, src, dst)
        out_capacity = sum(link.capacity_bps for link in net.out_links(src))
        in_capacity = sum(
            link.capacity_bps for link in net.links() if link.dst == dst
        )
        assert flow <= out_capacity + 1e-6
        assert flow <= in_capacity + 1e-6
        # At least the bottleneck of the shortest path must flow.
        path = shortest_path(net, src, dst)
        assert flow >= path_bottleneck_bps(net, path) - 1e-6

    @given(random_networks())
    @settings(max_examples=25, deadline=None)
    def test_max_flow_symmetric_on_duplex(self, net):
        # Every link here is duplex with equal capacities, so flow is
        # symmetric.
        names = net.node_names
        src, dst = names[0], names[-1]
        assert max_flow_bps(net, src, dst) == pytest.approx(
            max_flow_bps(net, dst, src), rel=1e-9
        )


class TestGeoProperties:
    @given(
        st.floats(-89, 89),
        st.floats(-179, 179),
        st.floats(-89, 89),
        st.floats(-179, 179),
    )
    @settings(max_examples=100)
    def test_distance_symmetric_nonnegative(self, lat1, lon1, lat2, lon2):
        d12 = great_circle_km(lat1, lon1, lat2, lon2)
        d21 = great_circle_km(lat2, lon2, lat1, lon1)
        assert d12 >= 0.0
        assert d12 == pytest.approx(d21, abs=1e-6)
        assert d12 <= 20_016.0  # half the circumference, with slack


class TestPredictorProperties:
    @given(st.lists(st.floats(0.0, 1e10), min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_prediction_at_least_hedged_value(self, values):
        predictor = MeanRatePredictor()
        for value in values:
            prediction = predictor.update(value)
            # Core guarantee of Algorithm 1: room for 10% growth.
            assert prediction >= value * 1.1 - 1e-6

    @given(st.lists(st.floats(0.0, 1e10), min_size=2, max_size=60))
    @settings(max_examples=100)
    def test_decay_bounded(self, values):
        predictor = MeanRatePredictor()
        previous = None
        for value in values:
            prediction = predictor.update(value)
            if previous is not None:
                # The prediction never drops faster than the decay rate.
                assert prediction >= previous * 0.98 - 1e-6 or prediction >= value * 1.1 - 1e-6
            previous = prediction


class TestMultiplexingProperties:
    @given(
        st.lists(
            st.lists(st.floats(0.0, 100.0), min_size=5, max_size=30),
            min_size=1,
            max_size=4,
        ),
        st.floats(1.0, 400.0),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
    def test_exceedance_is_probability(self, samples, capacity):
        lengths = {len(s) for s in samples}
        arrays = [np.array(s) for s in samples if len(s) == max(lengths)]
        probability = exceedance_probability(arrays, capacity)
        assert -1e-9 <= probability <= 1.0 + 1e-9

    @given(
        st.lists(st.floats(0.0, 50.0), min_size=5, max_size=40),
        st.floats(10.0, 100.0),
    )
    @settings(max_examples=60)
    def test_queue_delay_monotone_in_capacity(self, samples, capacity):
        trace = [np.array(samples)]
        tight = transient_queue_delay_s(trace, capacity)
        loose = transient_queue_delay_s(trace, capacity * 2)
        assert loose <= tight + 1e-12
        assert tight >= 0.0


class TestTrafficMatrixProperties:
    @given(
        st.dictionaries(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from(["a", "b", "c", "d"]),
            ).filter(lambda p: p[0] != p[1]),
            st.floats(0.0, 1e9),
            min_size=1,
            max_size=12,
        ),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=80)
    def test_scaling_scales_totals(self, demands, factor):
        tm = TrafficMatrix(demands)
        scaled = tm.scaled(factor)
        assert scaled.total_demand_bps == pytest.approx(
            tm.total_demand_bps * factor, rel=1e-9, abs=1e-6
        )
        for node in "abcd":
            assert scaled.ingress_bps(node) == pytest.approx(
                tm.ingress_bps(node) * factor, rel=1e-9, abs=1e-6
            )
