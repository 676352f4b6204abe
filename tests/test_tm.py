"""Unit tests for the traffic-matrix package: datatype, gravity, locality,
scaling."""

import numpy as np
import pytest

from repro.net.units import Gbps
from repro.tm import (
    TrafficMatrix,
    apply_locality,
    gravity_traffic_matrix,
    max_scale_factor,
    scale_to_growth_headroom,
)
from repro.tm.gravity import TOTAL_BPS, zipf_masses
from repro.tm.matrix import Aggregate
from repro.tm.matrix import from_json as tm_from_json
from repro.tm.matrix import to_json as tm_to_json


class TestAggregate:
    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            Aggregate("a", "a", 1.0)

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            Aggregate("a", "b", -1.0)

    def test_rejects_zero_flows(self):
        with pytest.raises(ValueError):
            Aggregate("a", "b", 1.0, n_flows=0)

    def test_pair(self):
        assert Aggregate("a", "b", 1.0).pair == ("a", "b")


class TestTrafficMatrix:
    def test_demand_lookup(self, triangle_tm):
        assert triangle_tm.demand("a", "b") == Gbps(2)
        assert triangle_tm.demand("c", "a") == 0.0

    def test_flow_counts_scale_with_demand(self, triangle_tm):
        assert triangle_tm.flows("a", "b") == 2 * triangle_tm.flows("a", "c")

    def test_explicit_flow_counts(self):
        tm = TrafficMatrix({("a", "b"): 100.0}, flow_counts={("a", "b"): 7})
        assert tm.flows("a", "b") == 7

    def test_aggregates_drop_trivial(self):
        tm = TrafficMatrix({("a", "b"): 100.0, ("b", "a"): 0.0})
        aggs = tm.aggregates()
        assert len(aggs) == 1
        assert aggs[0].pair == ("a", "b")

    def test_total_demand(self, triangle_tm):
        assert triangle_tm.total_demand_bps == pytest.approx(Gbps(4))

    def test_ingress_egress(self, triangle_tm):
        assert triangle_tm.ingress_bps("a") == pytest.approx(Gbps(3))
        assert triangle_tm.egress_bps("c") == pytest.approx(Gbps(2))

    def test_scaled(self, triangle_tm):
        doubled = triangle_tm.scaled(2.0)
        assert doubled.demand("a", "b") == pytest.approx(Gbps(4))
        # Original untouched.
        assert triangle_tm.demand("a", "b") == pytest.approx(Gbps(2))

    def test_scaled_rejects_negative(self, triangle_tm):
        with pytest.raises(ValueError):
            triangle_tm.scaled(-1.0)

    def test_rejects_self_demand(self):
        with pytest.raises(ValueError):
            TrafficMatrix({("a", "a"): 1.0})

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            TrafficMatrix({("a", "b"): -1.0})


class TestZipfMasses:
    def test_length_and_positive(self, rng):
        masses = zipf_masses(10, rng)
        assert len(masses) == 10
        assert np.all(masses > 0)

    def test_heavy_tail(self, rng):
        masses = zipf_masses(100, rng)
        assert masses.max() / masses.min() == pytest.approx(100.0)

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            zipf_masses(0, rng)


class TestGravity:
    def test_covers_all_pairs(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        n = gts.num_nodes
        assert len(tm) == n * (n - 1)

    def test_total_matches_requested(self, triangle, rng):
        tm = gravity_traffic_matrix(triangle, rng)
        assert tm.total_demand_bps == pytest.approx(TOTAL_BPS)

    def test_deterministic_given_seed(self, gts):
        tm_a = gravity_traffic_matrix(gts, np.random.default_rng(9))
        tm_b = gravity_traffic_matrix(gts, np.random.default_rng(9))
        assert tm_a.demand(*tm_a.pairs[0]) == tm_b.demand(*tm_b.pairs[0])

    def test_heavy_tailed_aggregates(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        demands = sorted((d for _, d in tm.items()), reverse=True)
        top_decile = sum(demands[: len(demands) // 10])
        assert top_decile > 0.4 * sum(demands)

    def test_requires_two_nodes(self, rng):
        from repro.net.graph import Network, Node

        net = Network("single")
        net.add_node(Node("a"))
        with pytest.raises(ValueError):
            gravity_traffic_matrix(net, rng)


class TestLocality:
    def test_zero_locality_identity(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        assert apply_locality(gts, tm, 0.0) is tm

    def test_preserves_marginals(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        shaped = apply_locality(gts, tm, 1.0)
        for node in gts.node_names[:5]:
            assert shaped.ingress_bps(node) == pytest.approx(
                tm.ingress_bps(node), rel=1e-5
            )
            assert shaped.egress_bps(node) == pytest.approx(
                tm.egress_bps(node), rel=1e-5
            )

    def test_respects_growth_cap(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        locality = 1.0
        shaped = apply_locality(gts, tm, locality)
        for pair in tm.pairs:
            assert shaped.demand(*pair) <= tm.demand(*pair) * (1 + locality) + 1.0

    def test_reduces_mean_distance(self, gts, rng):
        from repro.tm.locality import aggregate_distances_s

        tm = gravity_traffic_matrix(gts, rng)
        shaped = apply_locality(gts, tm, 1.0)
        distances = aggregate_distances_s(gts, tm)
        before = sum(tm.demand(*p) * distances[p] for p in tm.pairs)
        after = sum(shaped.demand(*p) * distances[p] for p in tm.pairs)
        assert after < before

    def test_higher_locality_more_local(self, gts, rng):
        from repro.tm.locality import aggregate_distances_s

        tm = gravity_traffic_matrix(gts, rng)
        distances = aggregate_distances_s(gts, tm)

        def weighted_distance(matrix):
            return sum(matrix.demand(*p) * distances[p] for p in matrix.pairs)

        mild = apply_locality(gts, tm, 0.5)
        strong = apply_locality(gts, tm, 2.0)
        assert weighted_distance(strong) <= weighted_distance(mild) + 1e-6

    def test_negative_locality_rejected(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        with pytest.raises(ValueError):
            apply_locality(gts, tm, -0.5)


class TestScaling:
    def test_triangle_known_value(self, triangle):
        tm = TrafficMatrix(
            {("a", "b"): 1.0, ("a", "c"): 1.0},
            flow_counts={("a", "b"): 1, ("a", "c"): 1},
        )
        # Source a has 20 Gb/s of outgoing capacity, demand 2 b/s.
        assert max_scale_factor(triangle, tm) == pytest.approx(Gbps(10))

    def test_scaled_matrix_hits_target(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        scaled = scale_to_growth_headroom(gts, tm, growth_factor=1.3)
        assert max_scale_factor(gts, scaled) == pytest.approx(1.3, rel=1e-3)

    def test_min_cut_load_is_reciprocal(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        scaled = scale_to_growth_headroom(gts, tm, growth_factor=1.3)
        assert 1 / max_scale_factor(gts, scaled) == pytest.approx(
            1 / 1.3, rel=1e-3
        )

    def test_growth_below_one_rejected(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        with pytest.raises(ValueError):
            scale_to_growth_headroom(gts, tm, growth_factor=0.9)

    def test_empty_matrix_rejected(self, triangle):
        tm = TrafficMatrix({})
        with pytest.raises(ValueError):
            max_scale_factor(triangle, tm)

    def test_scale_factor_scales_inversely(self, triangle):
        tm = TrafficMatrix(
            {("a", "b"): 2.0}, flow_counts={("a", "b"): 1}
        )
        lam1 = max_scale_factor(triangle, tm)
        lam2 = max_scale_factor(triangle, tm.scaled(2.0))
        assert lam1 == pytest.approx(2 * lam2, rel=1e-6)


class TestTmJson:
    def test_round_trip_equality(self, gts, rng):
        tm = gravity_traffic_matrix(gts, rng)
        assert tm_from_json(tm_to_json(tm)) == tm

    def test_round_trip_preserves_pair_order(self):
        tm = TrafficMatrix({("b", "a"): 1.0, ("a", "b"): 2.0})
        restored = tm_from_json(tm_to_json(tm))
        assert restored.pairs == [("b", "a"), ("a", "b")]

    def test_zero_demand_pairs_retained(self):
        tm = TrafficMatrix({("a", "b"): 0.0, ("b", "a"): 5.0})
        restored = tm_from_json(tm_to_json(tm))
        assert restored.demand("a", "b") == 0.0
        assert ("a", "b") in restored.pairs

    def test_explicit_flow_counts_survive(self):
        tm = TrafficMatrix(
            {("a", "b"): 1e9}, flow_counts={("a", "b"): 7}
        )
        restored = tm_from_json(tm_to_json(tm))
        assert restored.flows("a", "b") == 7

    def test_float_demands_exact(self):
        demand = 0.1 + 0.2  # not representable exactly in decimal
        tm = TrafficMatrix({("a", "b"): demand})
        assert tm_from_json(tm_to_json(tm)).demand("a", "b") == demand

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            tm_from_json('{"format": "something-else", "version": 1}')

    def test_rejects_unknown_version(self):
        tm = TrafficMatrix({("a", "b"): 1.0})
        payload = tm_to_json(tm).replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError):
            tm_from_json(payload)

    def test_equality_is_order_sensitive(self):
        forward = TrafficMatrix({("a", "b"): 1.0, ("b", "a"): 2.0})
        backward = TrafficMatrix({("b", "a"): 2.0, ("a", "b"): 1.0})
        same = TrafficMatrix({("a", "b"): 1.0, ("b", "a"): 2.0})
        assert forward == same
        assert forward != backward  # aggregate order feeds the LPs
