"""Synthetic backbone traffic traces.

The generator produces a per-millisecond bitrate series with three layered
components, each mapped to an observation the paper makes about real
backbone traffic:

* a **minute-scale mean level** following a geometric random walk with a
  small per-minute variation (Google's WAN study [22] reports typical
  backbone links varying less than 10% minute to minute);
* **short-term burstiness** around the mean, modelled as an AR(1) process
  at millisecond granularity (bursts are correlated over sub-second
  timescales, which is what makes the paper's temporal-correlation test B
  meaningful);
* a **per-trace volatility level** sigma that itself drifts only slowly
  from minute to minute (the paper's Figure 10: "the points are tightly
  clustered around the x = y line").

Rates are clamped at zero, as bitrates are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

MS_PER_MINUTE = 60_000


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Parameters of one synthetic trace."""

    mean_bps: float = 2e9
    minutes: int = 30
    #: Std-dev of the per-minute log-step of the mean level (~3% steps).
    mean_drift: float = 0.03
    #: Burst std-dev as a fraction of the mean level (per-trace baseline).
    burst_sigma_fraction: float = 0.25
    #: Per-minute log-step of the burst sigma (Figure 10's clustering).
    sigma_drift: float = 0.05
    #: AR(1) coefficient of bursts, per millisecond.  Coarser sample
    #: intervals compound it (rho_effective = rho ** sample_ms) so a trace
    #: has the same burst correlation *time* at any resolution.
    burst_correlation: float = 0.995
    #: Milliseconds per sample (1 = the CAIDA-like resolution).
    sample_ms: int = 1

    def __post_init__(self) -> None:
        if self.mean_bps <= 0:
            raise ValueError(f"mean rate must be positive, got {self.mean_bps}")
        if self.minutes < 1:
            raise ValueError(f"need at least one minute, got {self.minutes}")
        if not 0.0 <= self.burst_correlation < 1.0:
            raise ValueError(
                f"AR(1) coefficient must be in [0, 1), got {self.burst_correlation}"
            )
        if MS_PER_MINUTE % self.sample_ms != 0:
            raise ValueError("sample_ms must divide a minute")

    @property
    def samples_per_minute(self) -> int:
        return MS_PER_MINUTE // self.sample_ms


def synthesize_trace(
    config: SyntheticTraceConfig, rng: np.random.Generator
) -> np.ndarray:
    """One trace: bitrate (bits/s) per ``config.sample_ms`` interval.

    Returns an array of shape ``(minutes * samples_per_minute,)``.
    """
    spm = config.samples_per_minute
    total = config.minutes * spm

    # Minute-scale mean level: geometric random walk around mean_bps.
    log_steps = rng.normal(0.0, config.mean_drift, size=config.minutes)
    minute_levels = config.mean_bps * np.exp(np.cumsum(log_steps) - log_steps[0])

    # Per-minute burst sigma: its own slow geometric walk.
    sigma_steps = rng.normal(0.0, config.sigma_drift, size=config.minutes)
    sigma_levels = (
        config.burst_sigma_fraction
        * minute_levels
        * np.exp(np.cumsum(sigma_steps) - sigma_steps[0])
    )

    # AR(1) bursts at sample granularity, unit marginal variance.  The
    # recursion b[i] = rho*b[i-1] + e[i] is an IIR filter, which scipy
    # evaluates in C — a pure-Python loop over millions of samples is not
    # an option.
    from scipy.signal import lfilter

    rho = config.burst_correlation ** config.sample_ms
    innovations = rng.normal(0.0, np.sqrt(1.0 - rho * rho), size=total)
    initial = float(rng.normal())
    bursts, _ = lfilter([1.0], [1.0, -rho], innovations, zi=[rho * initial])

    mean_series = np.repeat(minute_levels, spm)
    sigma_series = np.repeat(sigma_levels, spm)
    rates = mean_series + sigma_series * bursts
    np.maximum(rates, 0.0, out=rates)
    return rates


def trace_ensemble(
    n_traces: int,
    rng: np.random.Generator,
    minutes: int = 30,
    sample_ms: int = 1,
) -> List[np.ndarray]:
    """An ensemble mimicking the paper's CAIDA corpus ("typically ranging
    from 1 to 3 Gbps"): each trace's mean rate is uniform on 1-3 Gbps."""
    if n_traces < 1:
        raise ValueError(f"need at least one trace, got {n_traces}")
    traces = []
    for _ in range(n_traces):
        config = SyntheticTraceConfig(
            mean_bps=float(rng.uniform(1e9, 3e9)),
            minutes=minutes,
            burst_sigma_fraction=float(rng.uniform(0.1, 0.4)),
            sample_ms=sample_ms,
        )
        traces.append(synthesize_trace(config, rng))
    return traces
