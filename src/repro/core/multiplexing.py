"""Statistical multiplexing checks (paper §5, its Figure 14 loop).

Given the 100 ms rate samples of the aggregates sharing a link, the LDR
controller must decide whether they will multiplex onto the link without
building transient queues beyond a budget (:data:`MAX_QUEUE_S`, 10 ms).
Three layers are applied, cheapest first:

1. **Peak filter** — if the sum of the aggregates' peak rates fits the
   capacity, both tests below pass trivially and are skipped.
2. **Temporal-correlation test (B)** — sum the aggregates' samples
   interval by interval, carry excess over capacity into the next interval
   as queued traffic, and reject if the queue ever implies more delay than
   the budget.  This catches bursts that are correlated in time.
3. **Uncorrelated multiplexing test (C)** — treat each aggregate's samples
   as an independent probability mass function, convolve the PMFs (via FFT:
   "convolution in the time domain is equivalent to multiplication in the
   frequency domain"), and reject if the probability that the convolved
   rate exceeds capacity is above ``MAX_QUEUE_S / measurement_window_s``
   (0.00016 for 10 ms over 60 s).

The paper reports 1024 quantization levels per distribution work well;
that is the default here, and :func:`check_link_multiplexing` always
uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Transient queueing budget per link (paper §5).
MAX_QUEUE_S = 0.010
#: Reporting interval of ingress routers: each rate sample is a 100 ms mean.
INTERVAL_S = 0.1
#: Quantization levels of the convolution test (paper §5).
DEFAULT_LEVELS = 1024


def transient_queue_delay_s(
    aggregate_samples_bps: Sequence[np.ndarray],
    capacity_bps: float,
) -> float:
    """Worst transient queueing delay if these aggregates share the link.

    Implements test B: per-interval aggregate rates are summed; traffic in
    excess of capacity queues and carries over to the next interval.  The
    returned value is the maximum queue depth expressed as drain time.
    """
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bps}")
    if not aggregate_samples_bps:
        return 0.0
    lengths = {len(samples) for samples in aggregate_samples_bps}
    if len(lengths) != 1:
        raise ValueError(f"sample arrays must share a length, got {sorted(lengths)}")
    total = np.sum(aggregate_samples_bps, axis=0)
    excess_bits = (np.asarray(total, dtype=float) - capacity_bps) * INTERVAL_S
    # The queue follows the Lindley recursion q_t = max(0, q_{t-1} + e_t),
    # whose closed form is S_t - min(0, min_{j<=t} S_j) with S the running
    # sum of excesses — two cumulative scans instead of a Python loop,
    # which matters because the appraise phase runs this once per link per
    # LDR round.
    cumulative = np.cumsum(excess_bits)
    running_min = np.minimum(np.minimum.accumulate(cumulative), 0.0)
    worst_bits = float(np.max(cumulative - running_min, initial=0.0))
    return worst_bits / capacity_bps


def _pmf(samples: np.ndarray, bin_width: float, n_bins: int) -> np.ndarray:
    """Histogram of samples as a PMF over fixed-width bins.

    Samples map to the *nearest* bin center: truncating instead would
    shift every rate down by up to a full bin and systematically
    underestimate the convolved exceedance probability.
    """
    if samples.size and float(samples.min()) < 0:
        raise ValueError(
            f"rate samples must be non-negative, got min {float(samples.min())}"
        )
    indices = np.minimum(
        np.rint(samples / bin_width).astype(int), n_bins - 1
    )
    pmf = np.bincount(indices, minlength=n_bins).astype(float)
    return pmf / pmf.sum()


def exceedance_probability(
    aggregate_samples_bps: Sequence[np.ndarray],
    capacity_bps: float,
    levels: int = DEFAULT_LEVELS,
) -> float:
    """P[sum of independent aggregates > capacity], via FFT convolution.

    Each aggregate's samples become a PMF with ``levels`` bins; the PMFs
    are convolved by multiplying their FFTs.  This is test C: it asks
    whether the aggregates are *statistically* likely to exceed capacity
    even if their bursts are independent.
    """
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bps}")
    if levels < 2:
        raise ValueError(f"need at least 2 quantization levels, got {levels}")
    if not aggregate_samples_bps:
        return 0.0
    peak_sum = sum(float(np.max(samples)) for samples in aggregate_samples_bps)
    if peak_sum <= 0:
        return 0.0
    # A shared quantization grid spanning the worst-case total keeps the
    # convolution support (and hence the FFT size) bounded regardless of
    # how many aggregates share the link, preserving the paper's
    # O(N log N) claim.  ``levels`` controls the grid resolution: with the
    # default 1024 we use a 4x finer total grid so each aggregate's own
    # distribution still resolves to roughly 1024 effective levels.
    support = max(peak_sum, capacity_bps) * (1.0 + 1e-9)
    n_bins = levels * 4
    bin_width = support / (n_bins - 1)
    fft_size = 1 << (2 * n_bins - 1).bit_length()

    spectrum = np.ones(fft_size // 2 + 1, dtype=complex)
    for samples in aggregate_samples_bps:
        pmf = _pmf(np.asarray(samples, dtype=float), bin_width, n_bins)
        spectrum *= np.fft.rfft(pmf, fft_size)
    convolved = np.fft.irfft(spectrum, fft_size)
    # FFT round-off can leave tiny negative mass.
    np.maximum(convolved, 0.0, out=convolved)
    total_mass = convolved.sum()
    if total_mass <= 0:
        return 0.0
    convolved /= total_mass

    # The bin at index i represents rate i * bin_width (each aggregate's
    # bins add); everything strictly above capacity is the exceedance.
    capacity_index = int(np.floor(capacity_bps / bin_width))
    if capacity_index + 1 >= len(convolved):
        return 0.0
    return float(convolved[capacity_index + 1 :].sum())


@dataclass(frozen=True)
class LinkCheck:
    """Outcome of the combined multiplexing check on one link."""

    passed: bool
    #: Which layer decided: "peak-filter", "temporal", or "convolution".
    decided_by: str
    exceed_probability: float


def check_link_multiplexing(
    aggregate_samples_bps: Sequence[np.ndarray],
    capacity_bps: float,
) -> LinkCheck:
    """All three layers on one link: peak filter, then tests B and C.

    The exceedance threshold follows the paper: with a
    :data:`MAX_QUEUE_S` budget over a measurement window of
    ``n_samples * INTERVAL_S`` seconds, allow ``MAX_QUEUE_S / window_s``
    exceedance probability.
    """
    if not aggregate_samples_bps:
        return LinkCheck(True, "peak-filter", 0.0)
    if any(len(samples) == 0 for samples in aggregate_samples_bps):
        raise ValueError(
            "every aggregate needs at least one rate sample "
            "(the exceedance threshold divides by the measurement window)"
        )

    peak_sum = sum(float(np.max(samples)) for samples in aggregate_samples_bps)
    if peak_sum <= capacity_bps:
        return LinkCheck(True, "peak-filter", 0.0)

    if transient_queue_delay_s(aggregate_samples_bps, capacity_bps) > MAX_QUEUE_S:
        return LinkCheck(False, "temporal", 1.0)

    window_s = len(aggregate_samples_bps[0]) * INTERVAL_S
    threshold = MAX_QUEUE_S / window_s
    probability = exceedance_probability(aggregate_samples_bps, capacity_bps)
    passed = probability <= threshold
    return LinkCheck(passed, "convolution", probability)
