"""Statistics extracted from traffic traces.

These are the measurement primitives behind the paper's Figures 9 and 10
and behind LDR's multiplexing checks: per-minute mean levels and the
per-minute standard deviation of millisecond rates.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def _reshape_minutes(trace: np.ndarray, samples_per_minute: int) -> np.ndarray:
    if trace.ndim != 1:
        raise ValueError(f"trace must be one-dimensional, got shape {trace.shape}")
    if samples_per_minute < 1:
        raise ValueError(f"samples_per_minute must be >= 1, got {samples_per_minute}")
    n_minutes = len(trace) // samples_per_minute
    if n_minutes == 0:
        raise ValueError("trace shorter than one minute")
    return trace[: n_minutes * samples_per_minute].reshape(
        n_minutes, samples_per_minute
    )


def minute_means(trace: np.ndarray, samples_per_minute: int) -> np.ndarray:
    """Mean rate of each full minute in the trace."""
    return _reshape_minutes(trace, samples_per_minute).mean(axis=1)


def per_minute_sigma(trace: np.ndarray, samples_per_minute: int) -> np.ndarray:
    """Standard deviation of the per-sample rates within each minute.

    The paper: "We measure the bit-rate from the CAIDA traces each
    millisecond, and calculate the standard deviation of these values for
    each minute."
    """
    return _reshape_minutes(trace, samples_per_minute).std(axis=1)


def minute_sigma_pairs(
    trace: np.ndarray, samples_per_minute: int
) -> List[Tuple[float, float]]:
    """(sigma at minute t, sigma at minute t+1) pairs — Figure 10's scatter."""
    sigmas = per_minute_sigma(trace, samples_per_minute)
    return [(float(sigmas[i]), float(sigmas[i + 1])) for i in range(len(sigmas) - 1)]
