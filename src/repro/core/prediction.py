"""Algorithm 1: predicting the next minute's mean traffic level.

Verbatim from the paper:

    decay_multiplier <- 0.98   // 2% decay when level drops
    fixed_hedge      <- 1.1    // 10% hedge against growth
    scaled_est <- prev_value * fixed_hedge
    if scaled_est > prev_prediction then
        next_prediction <- scaled_est
    else
        decay_prediction <- prev_prediction * decay_multiplier
        next_prediction <- max(decay_prediction, scaled_est)

"This implements a simple conservative strategy: the estimate increases in
line with values measured during the last minute, and decays slowly when
the measured rate decreases.  The aim is aggregates can grow by 10% before
exceeding our target."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np


@dataclass
class MeanRatePredictor:
    """Stateful one-step-ahead predictor of an aggregate's mean rate."""

    decay_multiplier: float = 0.98
    fixed_hedge: float = 1.1
    _prev_prediction: Optional[float] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.decay_multiplier <= 1.0:
            raise ValueError(
                f"decay multiplier must be in (0, 1], got {self.decay_multiplier}"
            )
        if self.fixed_hedge < 1.0:
            raise ValueError(f"hedge must be >= 1, got {self.fixed_hedge}")

    def update(self, measured_mean_bps: float) -> float:
        """Feed last minute's measured mean; returns next minute's prediction."""
        if measured_mean_bps < 0:
            raise ValueError(f"negative rate {measured_mean_bps}")
        scaled_est = measured_mean_bps * self.fixed_hedge
        if self._prev_prediction is None or scaled_est > self._prev_prediction:
            next_prediction = scaled_est
        else:
            decay_prediction = self._prev_prediction * self.decay_multiplier
            next_prediction = max(decay_prediction, scaled_est)
        self._prev_prediction = next_prediction
        return next_prediction


def predict_series(
    minute_means_bps: Iterable[float],
    decay_multiplier: float = 0.98,
    fixed_hedge: float = 1.1,
) -> np.ndarray:
    """One-step-ahead predictions for a series of per-minute means.

    ``result[i]`` is the prediction for minute ``i+1`` made after observing
    minute ``i`` — compare ``means[i+1] / result[i]`` to reproduce the
    paper's Figure 9 CDF.
    """
    predictor = MeanRatePredictor(decay_multiplier, fixed_hedge)
    return np.array([predictor.update(float(m)) for m in minute_means_bps])


def prediction_ratios(minute_means_bps: np.ndarray, **kwargs) -> np.ndarray:
    """measured/predicted ratios across a trace (the Figure 9 quantity)."""
    means = np.asarray(minute_means_bps, dtype=float)
    if len(means) < 2:
        raise ValueError("need at least two minutes to score predictions")
    predictions = predict_series(means, **kwargs)
    return means[1:] / predictions[:-1]
