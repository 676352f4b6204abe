"""Unit tests for Algorithm 1 (mean-rate prediction)."""

import numpy as np
import pytest

from repro.core.prediction import (
    MeanRatePredictor,
    predict_series,
    prediction_ratios,
)


class TestMeanRatePredictor:
    def test_first_prediction_is_hedged_value(self):
        predictor = MeanRatePredictor()
        assert predictor.update(100.0) == pytest.approx(110.0)

    def test_growth_tracks_immediately(self):
        predictor = MeanRatePredictor()
        predictor.update(100.0)
        # 200 * 1.1 > 110, so the prediction jumps.
        assert predictor.update(200.0) == pytest.approx(220.0)

    def test_decay_is_slow(self):
        predictor = MeanRatePredictor()
        predictor.update(100.0)  # prediction 110
        # Rate drops to 50: scaled_est = 55 < 110, decay gives 107.8.
        assert predictor.update(50.0) == pytest.approx(110.0 * 0.98)

    def test_decay_floors_at_scaled_estimate(self):
        predictor = MeanRatePredictor()
        predictor.update(100.0)
        for _ in range(200):
            prediction = predictor.update(50.0)
        # After long decay, the prediction settles at 50 * 1.1.
        assert prediction == pytest.approx(55.0)

    def test_constant_traffic_stabilizes_at_hedge(self):
        predictor = MeanRatePredictor()
        for _ in range(50):
            prediction = predictor.update(100.0)
        assert prediction == pytest.approx(110.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeanRatePredictor(decay_multiplier=0.0)
        with pytest.raises(ValueError):
            MeanRatePredictor(fixed_hedge=0.9)
        predictor = MeanRatePredictor()
        with pytest.raises(ValueError):
            predictor.update(-1.0)


class TestSeries:
    def test_predict_series_shape(self):
        predictions = predict_series([1.0, 2.0, 3.0])
        assert len(predictions) == 3
        assert predictions[0] == pytest.approx(1.1)

    def test_ratio_for_constant_traffic(self):
        ratios = prediction_ratios(np.full(20, 5.0))
        assert np.allclose(ratios, 1 / 1.1)

    def test_ratios_rarely_exceed_one_for_mild_drift(self, rng):
        """The Figure 9 property: with <10% minute-to-minute changes the
        measured rate almost never exceeds the hedged prediction."""
        steps = rng.normal(0.0, 0.03, size=500)
        means = 1e9 * np.exp(np.cumsum(steps))
        ratios = prediction_ratios(means)
        assert np.mean(ratios > 1.0) < 0.01
        assert ratios.max() < 1.1

    def test_needs_two_minutes(self):
        with pytest.raises(ValueError):
            prediction_ratios(np.array([1.0]))
