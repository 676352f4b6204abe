"""Tests for the experiment harness (workloads, runner, figures, render)."""

import numpy as np
import pytest

from repro.experiments.render import render_cdf, render_scatter_summary, render_series
from repro.experiments.engine import ExperimentEngine
from repro.experiments.runner import SchemeOutcome, per_network_quantiles
from repro.experiments.workloads import (
    build_traffic_matrices,
    build_zoo_workload,
)
from repro.routing import ShortestPathRouting
from repro.tm.scale import max_scale_factor
from tests.plans import one_stream


@pytest.fixture(scope="module")
def tiny_workload():
    return build_zoo_workload(
        n_networks=4, n_matrices=2, seed=2, include_named=False
    )


class TestWorkloads:
    def test_build_matrices_hit_target_load(self, gts, rng):
        matrices = build_traffic_matrices(gts, 2, rng, locality=1.0,
                                          growth_factor=1.3)
        assert len(matrices) == 2
        for tm in matrices:
            assert max_scale_factor(gts, tm) == pytest.approx(1.3, rel=1e-3)

    def test_workload_structure(self, tiny_workload):
        assert len(tiny_workload.networks) == 4
        for item in tiny_workload.networks:
            assert 0.0 <= item.llpd <= 1.0
            assert len(item.matrices) == 2
            assert item.cache is not None

    def test_deterministic(self):
        a = build_zoo_workload(n_networks=3, n_matrices=1, seed=5,
                               include_named=False)
        b = build_zoo_workload(n_networks=3, n_matrices=1, seed=5,
                               include_named=False)
        assert [w.llpd for w in a.networks] == [w.llpd for w in b.networks]


def sp_outcomes(workload):
    return ExperimentEngine().run_plan(
        one_stream(lambda item: ShortestPathRouting(item.cache), workload)
    ).outcomes("SP")


class TestRunner:
    def test_engine_run_outcome_count(self, tiny_workload):
        outcomes = sp_outcomes(tiny_workload)
        assert len(outcomes) == 4 * 2
        for outcome in outcomes:
            assert 0.0 <= outcome.congested_fraction <= 1.0
            assert outcome.latency_stretch >= 1.0 - 1e-9
            # SP routing is on shortest paths by construction.
            assert outcome.latency_stretch == pytest.approx(1.0)

    def test_quantiles_sorted_by_llpd(self, tiny_workload):
        outcomes = sp_outcomes(tiny_workload)
        points = per_network_quantiles(outcomes, "congested_fraction", 0.5)
        assert len(points) == 4
        xs = [x for x, _ in points]
        assert xs == sorted(xs)

    def test_quantile_validation(self, tiny_workload):
        outcomes = sp_outcomes(tiny_workload)
        with pytest.raises(ValueError):
            per_network_quantiles(outcomes, "congested_fraction", 1.5)

    def test_outcomes_carry_unique_network_ids(self, tiny_workload):
        outcomes = sp_outcomes(tiny_workload)
        ids = {o.network_id for o in outcomes}
        assert len(ids) == len(tiny_workload.networks)
        assert all(o.network_id for o in outcomes)

    def test_duplicate_network_names_not_merged(self):
        """Two networks sharing a name must stay two points — merging them
        would mislabel the merged point with the first one's LLPD."""

        def outcome(llpd, congestion, network_id):
            return SchemeOutcome(
                network_name="zoo-dup",
                llpd=llpd,
                congested_fraction=congestion,
                latency_stretch=1.0,
                max_path_stretch=1.0,
                max_utilization=0.5,
                fits=True,
                network_id=network_id,
            )

        outcomes = [
            outcome(0.2, 0.0, "0:zoo-dup"),
            outcome(0.2, 0.2, "0:zoo-dup"),
            outcome(0.8, 1.0, "1:zoo-dup"),
            outcome(0.8, 0.8, "1:zoo-dup"),
        ]
        points = per_network_quantiles(outcomes, "congested_fraction", 0.5)
        assert points == [(0.2, 0.1), (0.8, 0.9)]

    def test_duplicate_names_without_ids_fall_back_to_llpd(self):
        """Hand-built outcomes (no network_id) still split by llpd."""
        outcomes = [
            SchemeOutcome("zoo-dup", llpd, 0.0, 1.0, 1.0, 0.5, True)
            for llpd in (0.3, 0.7)
        ]
        points = per_network_quantiles(outcomes, "congested_fraction", 0.5)
        assert [x for x, _ in points] == [0.3, 0.7]


class TestFigures:
    def test_fig01(self, gts):
        from repro.experiments.figures import fig01_apa_cdfs

        curves = fig01_apa_cdfs([gts])
        assert "gts-like" in curves
        cdf = curves["gts-like"]
        assert (np.diff(cdf) >= 0).all()

    def test_fig03_shape(self, tiny_workload):
        from repro.experiments.figures import fig03_plan, fig03_sp_congestion

        result = fig03_sp_congestion(
            ExperimentEngine().run_plan(fig03_plan(tiny_workload))
        )
        assert set(result) == {"median", "p90"}
        for _, fraction in result["median"]:
            assert 0.0 <= fraction <= 1.0
        # p90 dominates the median pointwise.
        for (_, med), (_, p90) in zip(result["median"], result["p90"]):
            assert p90 >= med - 1e-12

    def test_fig07(self, gts, gts_tm):
        from repro.experiments.figures import fig07_utilization_cdf

        result = fig07_utilization_cdf(gts, gts_tm)
        optimal = result["latency_optimal"]
        minmax = result["minmax"]
        assert optimal.max() > minmax.max()  # optimal lives on the edge
        assert minmax.max() == pytest.approx(1 / 1.3, rel=0.02)

    def test_fig09(self, rng):
        from repro.experiments.figures import fig09_prediction_ratios
        from repro.traces import trace_ensemble

        traces = trace_ensemble(3, rng, minutes=8, sample_ms=100)
        ratios = fig09_prediction_ratios(traces, samples_per_minute=600)
        assert len(ratios) == 3 * 7
        assert (np.diff(ratios) >= 0).all()
        assert np.mean(ratios > 1.0) < 0.05

    def test_fig10(self, rng):
        from repro.experiments.figures import fig10_sigma_scatter
        from repro.traces import trace_ensemble

        traces = trace_ensemble(2, rng, minutes=5, sample_ms=10)
        points = fig10_sigma_scatter(traces, samples_per_minute=6000)
        assert len(points) == 2 * 4
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        assert np.corrcoef(xs, ys)[0, 1] > 0.5

    def test_scheme_factories_share_cache(self, tiny_workload):
        from repro.experiments.figures import scheme_factories

        item = tiny_workload.networks[0]
        factories = scheme_factories()
        assert set(factories) == {"B4", "LDR", "MinMax", "MinMaxK10"}
        b4 = factories["B4"](item)
        assert b4._cache is item.cache


class TestRender:
    def test_render_series(self):
        text = render_series(
            "title",
            {"a": [(0.1, 1.0), (0.2, 2.0)], "b": [(0.2, 3.0)]},
            x_label="llpd",
        )
        assert "title" in text
        assert "llpd" in text
        lines = text.splitlines()
        assert len(lines) == 4  # title + header + two x rows

    def test_render_cdf(self):
        text = render_cdf("cdf", [1.0, 2.0, 3.0, 4.0])
        assert "0.50" in text

    def test_render_cdf_empty(self):
        assert "(no data)" in render_cdf("cdf", [])

    def test_render_scatter(self):
        points = [(1.0, 1.1), (2.0, 2.1), (3.0, 2.9)]
        text = render_scatter_summary("scatter", points)
        assert "corr" in text
