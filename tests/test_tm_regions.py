"""Tests for region-aggregated demands and the sparse gravity model."""

import hashlib

import numpy as np
import pytest

from repro.net.ingest import synthesize_internet_like
from repro.net.zoo import gts_like
from repro.tm.gravity import (
    gravity_traffic_matrix,
    sparse_gravity_traffic_matrix,
)
from repro.tm.matrix import TrafficMatrix
from repro.tm.regions import (
    aggregate_by_region,
    geographic_regions,
    maybe_aggregate,
    region_gateways,
)


@pytest.fixture(scope="module")
def internet():
    return synthesize_internet_like(300, seed=12)


@pytest.fixture(scope="module")
def internet_tm(internet):
    rng = np.random.default_rng(0)
    return sparse_gravity_traffic_matrix(internet, rng, n_pairs=2000)


class TestGeographicRegions:
    def test_partitions_every_node(self, internet):
        regions = geographic_regions(internet, 8)
        assert set(regions) == set(internet.node_names)
        assert set(regions.values()) == set(range(max(regions.values()) + 1))

    def test_deterministic(self, internet):
        assert geographic_regions(internet, 8) == geographic_regions(internet, 8)

    def test_every_region_nonempty(self, internet):
        regions = geographic_regions(internet, 12)
        gateways = region_gateways(internet, regions)
        assert len(gateways) == len(set(regions.values()))
        for gateway in gateways:
            assert gateway in internet.node_names

    def test_single_region(self, internet):
        regions = geographic_regions(internet, 1)
        assert set(regions.values()) == {0}

    def test_invalid_count_rejected(self, internet):
        with pytest.raises(ValueError):
            geographic_regions(internet, 0)


class TestMatrixAggregation:
    def test_aggregated_sums_demands(self):
        tm = TrafficMatrix(
            {("a", "b"): 10.0, ("c", "b"): 5.0, ("b", "a"): 2.0}
        )
        merged = tm.aggregated({"c": "a"})
        assert merged.demand("a", "b") == 15.0
        assert merged.demand("b", "a") == 2.0

    def test_aggregated_drops_collapsed_pairs(self):
        tm = TrafficMatrix({("a", "b"): 10.0})
        merged = tm.aggregated({"b": "a"})
        assert len(merged) == 0

    def test_unmapped_names_kept(self):
        tm = TrafficMatrix({("a", "b"): 1.0})
        assert tm.aggregated({}).demand("a", "b") == 1.0


class TestMaybeAggregate:
    def test_exact_below_budget(self, internet, internet_tm):
        routed, regional = maybe_aggregate(
            internet, internet_tm, max_pairs=10_000
        )
        assert routed is internet_tm
        assert regional is None

    def test_aggregates_above_budget(self, internet, internet_tm):
        routed, regional = maybe_aggregate(
            internet, internet_tm, max_pairs=500
        )
        assert regional is not None
        assert len(routed) <= 500
        assert regional.label == f"region~{regional.n_regions}"
        # Every surviving endpoint is a gateway.
        gateways = set(regional.gateways)
        for src, dst in routed.pairs:
            assert src in gateways and dst in gateways

    def test_demand_conservation(self, internet, internet_tm):
        routed, regional = maybe_aggregate(
            internet, internet_tm, max_pairs=500
        )
        assert (
            routed.total_demand_bps + regional.dropped_intra_bps
            == pytest.approx(internet_tm.total_demand_bps)
        )
        assert regional.dropped_intra_bps >= 0

    def test_deterministic(self, internet, internet_tm):
        first, _ = maybe_aggregate(internet, internet_tm, max_pairs=500)
        second, _ = maybe_aggregate(internet, internet_tm, max_pairs=500)
        assert first.pairs == second.pairs
        for pair in first.pairs:
            assert first.demand(*pair) == second.demand(*pair)

    def test_explicit_region_count(self, internet, internet_tm):
        _, regional = maybe_aggregate(
            internet, internet_tm, max_pairs=500, n_regions=5
        )
        assert regional.n_regions <= 5

    def test_zoo_scale_untouched(self):
        network = gts_like()
        rng = np.random.default_rng(1)
        tm = gravity_traffic_matrix(network, rng)
        routed, regional = maybe_aggregate(network, tm)
        assert routed is tm and regional is None


class TestSparseGravity:
    def test_exact_pair_count(self, internet):
        rng = np.random.default_rng(5)
        tm = sparse_gravity_traffic_matrix(internet, rng, n_pairs=1500)
        assert len(tm) == 1500

    def test_deterministic(self, internet):
        a = sparse_gravity_traffic_matrix(
            internet, np.random.default_rng(5), n_pairs=400
        )
        b = sparse_gravity_traffic_matrix(
            internet, np.random.default_rng(5), n_pairs=400
        )
        assert a.pairs == b.pairs
        for pair in a.pairs:
            assert a.demand(*pair) == b.demand(*pair)

    def test_pairs_are_distinct_ordered_pairs(self, internet):
        rng = np.random.default_rng(2)
        tm = sparse_gravity_traffic_matrix(internet, rng, n_pairs=800)
        assert len(set(tm.pairs)) == 800
        for src, dst in tm.pairs:
            assert src != dst

    def test_request_beyond_grid_clamped(self):
        network = gts_like()
        rng = np.random.default_rng(3)
        n = network.num_nodes
        tm = sparse_gravity_traffic_matrix(network, rng, n_pairs=10 * n * n)
        assert len(tm) == n * (n - 1)

    def test_heavy_tail_shape(self, internet):
        rng = np.random.default_rng(7)
        tm = sparse_gravity_traffic_matrix(internet, rng, n_pairs=2000)
        demands = sorted(
            (tm.demand(*pair) for pair in tm.pairs), reverse=True
        )
        top_decile = sum(demands[: len(demands) // 10])
        assert top_decile > 0.5 * sum(demands)

    #: sha256 of each case's ``(pair, demand.hex(), flows)`` listing.
    PINS = {
        "sample-0":
            "60cbd29d1c1ee6d7bb7a60e77a23c0615e413ca4a082fb8466d631c2196331f4",
        "sample-7":
            "8a5aa00b1543932bcda3a0adae4807aeef9d9de900e124a232d71b4f66025899",
        "enumerate":
            "2cf17913f79a7d6d39f9de2b63c1018826a5b29f1e5201a17917efe08110ed73",
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_demands_pinned_bit_for_bit(self, case):
        """sha256 of every ``(pair, demand.hex(), flows)``: the sampling
        branch on a 300-node graph (rng seeds 0 and 7), and the
        enumeration fallback that a request for every ordered pair of a
        zoo network reaches once sampling stagnates."""
        if case == "enumerate":
            network = gts_like()
            n = network.num_nodes
            rng, n_pairs = np.random.default_rng(3), n * (n - 1)
        else:
            network = synthesize_internet_like(300, seed=1)
            rng, n_pairs = np.random.default_rng(int(case[-1])), 2000
        tm = sparse_gravity_traffic_matrix(network, rng, n_pairs=n_pairs)
        listing = [
            (pair, tm.demand(*pair).hex(), tm.flows(*pair)) for pair in tm.pairs
        ]
        digest = hashlib.sha256(repr(listing).encode()).hexdigest()
        assert digest == self.PINS[case]
