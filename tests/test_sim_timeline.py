"""Tests for the minute-by-minute control-loop simulation."""

import numpy as np
import pytest

from repro.net.units import Gbps
from repro.sim import TimelineSimulation
from repro.traces import SyntheticTraceConfig, synthesize_trace
from tests.conftest import loaded_gts_tm


def build_traces(network, tm, rng, minutes=4, sigma=0.12):
    traces = {}
    for agg in tm.aggregates():
        config = SyntheticTraceConfig(
            mean_bps=agg.demand_bps,
            minutes=minutes,
            sample_ms=100,
            burst_sigma_fraction=sigma,
            mean_drift=0.02,
        )
        traces[agg.pair] = synthesize_trace(config, rng)
    return traces


class TestValidation:
    def test_rejects_empty(self, triangle):
        with pytest.raises(ValueError):
            TimelineSimulation(triangle, {})

    def test_rejects_mismatched_lengths(self, triangle):
        with pytest.raises(ValueError):
            TimelineSimulation(
                triangle,
                {("a", "b"): np.ones(1200), ("b", "c"): np.ones(600)},
            )

    def test_rejects_single_minute(self, triangle):
        with pytest.raises(ValueError, match="two minutes"):
            TimelineSimulation(triangle, {("a", "b"): np.ones(600)})


class TestRun:
    def test_smooth_traffic_stays_clean(self, triangle):
        traces = {
            ("a", "b"): np.full(3 * 600, Gbps(1)),
            ("b", "c"): np.full(3 * 600, Gbps(2)),
        }
        sim = TimelineSimulation(triangle, traces)
        reports = sim.run()
        assert len(reports) == 2
        for report in reports:
            assert report.converged
            assert report.max_queue_delay_s == 0.0
            assert report.links_over_budget == 0
            assert report.latency_stretch == pytest.approx(1.0)
            # Actual utilization stays well below 1 (traffic is light).
            assert report.actual_max_utilization == pytest.approx(0.2)

    def test_limit_minutes(self, triangle):
        traces = {("a", "b"): np.full(5 * 600, Gbps(1))}
        sim = TimelineSimulation(triangle, traces)
        assert len(sim.run(n_minutes=2)) == 2

    def test_loaded_network_multi_minute(self, gts, rng):
        """Several minutes of realistic operation: the placements keep
        next-minute queueing within budget nearly always."""
        tm = loaded_gts_tm(gts, growth_factor=1.65)
        traces = build_traces(gts, tm, rng, minutes=4)
        sim = TimelineSimulation(gts, traces)
        reports = sim.run()
        assert len(reports) == 3
        converged = [r for r in reports if r.converged]
        assert len(converged) >= 2
        for report in converged:
            # Headroom from the 10% hedge + multiplexing scaling should
            # absorb a 2% mean drift and the bursts almost entirely.
            assert report.max_queue_delay_s < 0.05
            assert report.actual_max_utilization < 1.0 + 1e-6
        # Predictor state persists: later minutes need no more rounds
        # than the cold first minute.
        assert reports[-1].ldr_rounds <= reports[0].ldr_rounds
