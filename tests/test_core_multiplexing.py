"""Unit tests for the multiplexing checks (temporal + convolution)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiplexing import (
    INTERVAL_S,
    MAX_QUEUE_S,
    _pmf,
    check_link_multiplexing,
    exceedance_probability,
    transient_queue_delay_s,
)


def queue_delay_reference(aggregate_samples_bps, capacity_bps):
    """The pre-vectorization per-interval loop, kept as the test oracle."""
    total = np.sum(aggregate_samples_bps, axis=0)
    queue_bits = 0.0
    worst_bits = 0.0
    for excess in (total - capacity_bps) * INTERVAL_S:
        queue_bits = max(0.0, queue_bits + excess)
        worst_bits = max(worst_bits, queue_bits)
    return worst_bits / capacity_bps


class TestTemporalQueue:
    def test_no_queue_under_capacity(self):
        samples = [np.full(10, 4.0), np.full(10, 4.0)]
        assert transient_queue_delay_s(samples, capacity_bps=10.0) == 0.0

    def test_sustained_overload_grows_queue(self):
        samples = [np.full(10, 6.0), np.full(10, 6.0)]
        # 2 b/s of excess for 10 intervals of 0.1 s = 2 bits of queue,
        # drained at 10 b/s -> 0.2 s.
        delay = transient_queue_delay_s(samples, capacity_bps=10.0)
        assert delay == pytest.approx(0.2)

    def test_burst_carries_over(self):
        burst = np.array([20.0, 0.0, 0.0])
        delay = transient_queue_delay_s([burst], capacity_bps=10.0)
        # One interval at +10 b/s -> 1 bit of queue -> 0.1 s drain.
        assert delay == pytest.approx(0.1)

    def test_queue_drains_between_bursts(self):
        trace = np.array([15.0, 5.0, 15.0, 5.0])
        delay = transient_queue_delay_s([trace], capacity_bps=10.0)
        # Queue never exceeds one interval's 0.5 bit excess.
        assert delay == pytest.approx(0.05)

    def test_empty_passes(self):
        assert transient_queue_delay_s([], 10.0) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            transient_queue_delay_s([np.zeros(3), np.zeros(4)], 1.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            transient_queue_delay_s([np.zeros(3)], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0),
                min_size=1,
                max_size=40,
            ),
            min_size=1,
            max_size=4,
        ),
        capacity=st.floats(min_value=0.5, max_value=40.0),
    )
    def test_vectorized_matches_loop(self, samples, capacity):
        length = min(len(trace) for trace in samples)
        arrays = [np.array(trace[:length]) for trace in samples]
        expected = queue_delay_reference(arrays, capacity)
        got = transient_queue_delay_s(arrays, capacity)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestExceedance:
    def test_constant_below_capacity(self):
        samples = [np.full(100, 3.0), np.full(100, 3.0)]
        assert exceedance_probability(samples, capacity_bps=10.0) < 1e-9

    def test_constant_above_capacity(self):
        samples = [np.full(100, 6.0), np.full(100, 6.0)]
        assert exceedance_probability(samples, capacity_bps=10.0) > 0.99

    def test_independent_tail(self):
        """Two aggregates each exceeding 5 with probability 0.1: the sum
        exceeds 10 only when both spike -> probability about 0.01."""
        rng = np.random.default_rng(0)
        a = np.where(rng.random(20000) < 0.1, 6.0, 2.0)
        b = np.where(rng.random(20000) < 0.1, 6.0, 2.0)
        probability = exceedance_probability([a, b], capacity_bps=10.0)
        assert probability == pytest.approx(0.01, rel=0.2)

    def test_matches_direct_convolution(self):
        """FFT result agrees with a brute-force enumeration."""
        rng = np.random.default_rng(7)
        a = rng.uniform(0.0, 5.0, size=400)
        b = rng.uniform(0.0, 5.0, size=400)
        capacity = 7.0
        probability = exceedance_probability([a, b], capacity)
        direct = np.mean(a[:, None] + b[None, :] > capacity)
        assert probability == pytest.approx(direct, abs=0.02)

    def test_empty_zero(self):
        assert exceedance_probability([], 1.0) == 0.0

    def test_all_zero_traffic(self):
        assert exceedance_probability([np.zeros(10)], 5.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            exceedance_probability([np.ones(4)], 0.0)
        with pytest.raises(ValueError):
            exceedance_probability([np.ones(4)], 1.0, levels=1)


class TestCheckLink:
    def test_peak_filter_short_circuits(self):
        samples = [np.full(600, 1.0), np.full(600, 2.0)]
        check = check_link_multiplexing(samples, capacity_bps=10.0)
        assert check.passed
        assert check.decided_by == "peak-filter"

    def test_temporal_failure(self):
        # Correlated burst: both aggregates spike together far beyond
        # capacity for a sustained period.
        burst = np.concatenate([np.full(100, 10.0), np.full(500, 1.0)])
        check = check_link_multiplexing([burst, burst], capacity_bps=12.0)
        assert not check.passed
        assert check.decided_by == "temporal"
        assert transient_queue_delay_s([burst, burst], 12.0) > MAX_QUEUE_S

    def test_convolution_pass_for_independent_bursts(self):
        rng = np.random.default_rng(1)
        # Rare independent spikes: temporally fine, statistically fine.
        def trace():
            return np.where(rng.random(600) < 0.001, 8.0, 1.0)

        check = check_link_multiplexing(
            [trace(), trace()], capacity_bps=10.0
        )
        assert check.passed

    def test_convolution_failure(self):
        rng = np.random.default_rng(2)
        # Spikes small enough that an isolated co-spike drains within the
        # queue budget (so the temporal test passes) but frequent enough
        # that the statistical exceedance is far above the threshold.
        def trace():
            return np.where(rng.random(600) < 0.05, 5.4, 3.0)

        check = check_link_multiplexing([trace(), trace()], capacity_bps=10.0)
        assert not check.passed
        assert check.decided_by == "convolution"
        assert check.exceed_probability > 1e-3

    def test_empty_passes(self):
        check = check_link_multiplexing([], capacity_bps=1.0)
        assert check.passed

    def test_zero_length_samples_rejected(self):
        # window_s would be 0 and the exceedance threshold would divide
        # by it; fail loudly instead.
        with pytest.raises(ValueError):
            check_link_multiplexing([np.array([])], capacity_bps=1.0)


class TestPmf:
    def test_rounds_to_nearest_bin(self):
        # 0.6 of a bin width used to truncate down to bin 0, biasing every
        # rate (and hence the exceedance probability) low.
        pmf = _pmf(np.array([0.6]), bin_width=1.0, n_bins=4)
        assert pmf[1] == 1.0

    def test_rounds_down_below_half(self):
        pmf = _pmf(np.array([0.4]), bin_width=1.0, n_bins=4)
        assert pmf[0] == 1.0

    def test_overflow_clamped_to_last_bin(self):
        pmf = _pmf(np.array([99.0]), bin_width=1.0, n_bins=4)
        assert pmf[3] == 1.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            _pmf(np.array([-1.0]), bin_width=1.0, n_bins=4)

    def test_negative_rate_rejected_via_public_api(self):
        with pytest.raises(ValueError):
            exceedance_probability([np.array([-2.0, 1.0])], capacity_bps=10.0)
