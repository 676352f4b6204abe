"""Small-scale unit tests for the heavier figure functions.

The benchmarks exercise these at evaluation scale; here each plan and
reducer pair runs on a minimal workload so `pytest tests/` covers the
code paths quickly.  That a stored re-render reduces to the same figure
as a fresh run is checked once for every CLI figure, in
``test_cli_figures.py``.
"""

import numpy as np
import pytest

from repro.experiments.figures import (
    fig08_headroom_sweep,
    fig08_plan,
    fig15_runtimes,
    fig16_max_stretch_cdfs,
    fig16_plan,
    fig17_load_sweep,
    fig17_plan,
    fig18_locality_sweep,
    fig18_plan,
    fig20_growth_benefit,
    fig20_plan,
    scheme_factories,
)
from repro.experiments.engine import ExperimentEngine
from repro.experiments.workloads import (
    NetworkWorkload,
    ZooWorkload,
    build_traffic_matrices,
)
from repro.net.zoo import grid_network, gts_like, ring_network


@pytest.fixture(scope="module")
def mini_items():
    rng = np.random.default_rng(5)
    items = []
    for network, llpd_value in (
        (gts_like(), 0.58),
        (grid_network(3, 4, np.random.default_rng(2), name="mini-grid"), 0.5),
    ):
        items.append(
            NetworkWorkload(
                network=network,
                llpd=llpd_value,
                matrices=build_traffic_matrices(
                    network, 1, rng, locality=1.0, growth_factor=1.3
                ),
            )
        )
    return items


@pytest.fixture(scope="module")
def mini_workload(mini_items):
    rng = np.random.default_rng(9)
    ring = ring_network(8, rng)
    low = NetworkWorkload(
        network=ring,
        llpd=0.1,
        matrices=build_traffic_matrices(ring, 1, rng, 1.0, 1.3),
    )
    return ZooWorkload(
        networks=[low] + mini_items, locality=1.0, growth_factor=1.3
    )


class TestFig15:
    def test_runtimes_structure(self, mini_items):
        times = fig15_runtimes(mini_items)
        assert len(times["ldr"]) == 2
        assert len(times["link_based"]) == 2
        assert all(t > 0 for t in times["ldr"])


class TestFig16:
    def test_classes_partition(self, mini_workload):
        results = fig16_max_stretch_cdfs(
            ExperimentEngine().run_plan(
                fig16_plan(mini_workload, llpd_split=0.4)
            )
        )
        assert set(results) == {"low_h0", "high_h0", "high_h10"}
        for by_scheme in results.values():
            assert set(by_scheme) == set(scheme_factories())
            for data in by_scheme.values():
                assert 0.0 <= data["unroutable_fraction"] <= 1.0
                assert data["stretches"] == sorted(data["stretches"])


class TestFig17:
    def test_load_sweep_rows(self, mini_items):
        results = fig17_load_sweep(
            ExperimentEngine().run_plan(
                fig17_plan(mini_items[:1], loads=(0.6, 0.9))
            )
        )
        for name, points in results.items():
            assert [x for x, _ in points] == [0.6, 0.9]
            assert all(y >= 1.0 - 1e-9 for _, y in points)


class TestFig18:
    def test_locality_sweep_rows(self, mini_items):
        networks = [item.network for item in mini_items[:1]]
        results = fig18_locality_sweep(
            ExperimentEngine().run_plan(
                fig18_plan(networks, localities=(0.0, 1.0), n_matrices=1)
            )
        )
        for name, points in results.items():
            assert [x for x, _ in points] == [0.0, 1.0]


class TestFig20:
    def test_growth_benefit_structure(self):
        rng = np.random.default_rng(11)
        ring = ring_network(8, rng)
        item = NetworkWorkload(
            network=ring,
            llpd=0.1,
            matrices=build_traffic_matrices(ring, 2, rng, 1.0, 1.3),
        )
        results = fig20_growth_benefit(
            ExperimentEngine().run_plan(
                fig20_plan([item], growth_fraction=0.2, max_candidates=6)
            )
        )
        for name, data in results.items():
            assert len(data["median"]) == 1
            assert len(data["p90"]) == 1
            before, after = data["median"][0]
            assert before >= 1.0 - 1e-9 and after >= 1.0 - 1e-9


class TestFig08Small:
    def test_headroom_keys(self, mini_workload):
        results = fig08_headroom_sweep(
            ExperimentEngine().run_plan(
                fig08_plan(mini_workload, headrooms=(0.0, 0.2))
            )
        )
        assert set(results) == {0.0, 0.2}
        for points in results.values():
            assert len(points) == len(mini_workload.networks)

