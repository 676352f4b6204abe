"""Unit tests for synthetic traces and their statistics."""

import numpy as np
import pytest

from repro.traces import (
    SyntheticTraceConfig,
    minute_means,
    minute_sigma_pairs,
    per_minute_sigma,
    synthesize_trace,
    trace_ensemble,
)


class TestConfig:
    def test_defaults_valid(self):
        config = SyntheticTraceConfig()
        assert config.samples_per_minute == 60_000

    def test_coarse_sampling(self):
        config = SyntheticTraceConfig(sample_ms=100)
        assert config.samples_per_minute == 600

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(mean_bps=0.0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(minutes=0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(sample_ms=7)


class TestSynthesize:
    def test_shape(self, rng):
        config = SyntheticTraceConfig(minutes=3, sample_ms=100)
        trace = synthesize_trace(config, rng)
        assert trace.shape == (3 * 600,)

    def test_nonnegative(self, rng):
        config = SyntheticTraceConfig(
            minutes=2, sample_ms=10, burst_sigma_fraction=0.8
        )
        trace = synthesize_trace(config, rng)
        assert (trace >= 0).all()

    def test_mean_near_configured(self, rng):
        config = SyntheticTraceConfig(
            mean_bps=2e9, minutes=5, sample_ms=100, mean_drift=0.01
        )
        trace = synthesize_trace(config, rng)
        assert trace.mean() == pytest.approx(2e9, rel=0.2)

    def test_deterministic(self):
        config = SyntheticTraceConfig(minutes=2, sample_ms=100)
        a = synthesize_trace(config, np.random.default_rng(3))
        b = synthesize_trace(config, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_minute_means_drift_mildly(self, rng):
        """Google WAN observation: minute-to-minute change < ~10%."""
        config = SyntheticTraceConfig(minutes=20, sample_ms=100, mean_drift=0.03)
        trace = synthesize_trace(config, rng)
        means = minute_means(trace, 600)
        changes = np.abs(np.diff(means)) / means[:-1]
        assert np.median(changes) < 0.1

    def test_sigma_persistent(self, rng):
        """Figure 10's property: sigma(t+1) is close to sigma(t)."""
        config = SyntheticTraceConfig(minutes=20, sample_ms=10)
        trace = synthesize_trace(config, rng)
        pairs = minute_sigma_pairs(trace, 6000)
        xs = np.array([p[0] for p in pairs])
        ys = np.array([p[1] for p in pairs])
        relative = np.abs(ys - xs) / xs
        assert np.median(relative) < 0.3

    def test_burst_correlation_positive(self, rng):
        config = SyntheticTraceConfig(minutes=2, sample_ms=1)
        trace = synthesize_trace(config, rng)
        x = trace[:-1] - trace[:-1].mean()
        y = trace[1:] - trace[1:].mean()
        lag1 = float((x * y).mean() / (x.std() * y.std()))
        assert lag1 > 0.9


class TestEnsemble:
    def test_count_and_range(self, rng):
        traces = trace_ensemble(4, rng, minutes=2, sample_ms=100)
        assert len(traces) == 4
        for trace in traces:
            assert 0.3e9 < trace.mean() < 6e9

    def test_rejects_zero(self, rng):
        with pytest.raises(ValueError):
            trace_ensemble(0, rng)


class TestStats:
    def test_minute_means(self):
        trace = np.concatenate([np.full(600, 1.0), np.full(600, 3.0)])
        means = minute_means(trace, 600)
        assert means == pytest.approx([1.0, 3.0])

    def test_truncates_partial_minute(self):
        trace = np.ones(1500)
        assert len(minute_means(trace, 600)) == 2

    def test_sigma(self):
        minute = np.tile([0.0, 2.0], 300)
        assert per_minute_sigma(minute, 600)[0] == pytest.approx(1.0)

    def test_sigma_pairs(self):
        trace = np.concatenate(
            [np.tile([0.0, 2.0], 300), np.tile([0.0, 4.0], 300)]
        )
        pairs = minute_sigma_pairs(trace, 600)
        assert pairs == [(pytest.approx(1.0), pytest.approx(2.0))]

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            minute_means(np.ones(10), 600)
        with pytest.raises(ValueError):
            minute_means(np.ones((2, 2)), 1)
