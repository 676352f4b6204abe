"""Unit tests for unit helpers and the path-LP building blocks."""

import pytest

from repro.net.units import Gbps, ms, to_gbps, to_ms
from repro.routing.base import Placement, normalize_allocations
from repro.routing.pathlp import solve_latency_lp, solve_minmax_lp
from repro.tm.matrix import Aggregate


class TestUnits:
    def test_rate_helpers(self):
        assert Gbps(2.5) == 2.5e9

    def test_time_helpers(self):
        assert ms(5) == pytest.approx(5e-3)
        assert to_ms(0.25) == pytest.approx(250.0)

    def test_round_trips(self):
        assert to_gbps(Gbps(7)) == pytest.approx(7.0)
        assert to_ms(ms(3)) == pytest.approx(3.0)


class TestSolveLatencyLp:
    def test_single_aggregate_prefers_short(self, diamond):
        agg = Aggregate("s", "t", Gbps(5))
        paths = [("s", "x", "t"), ("s", "y", "t")]
        result = solve_latency_lp(diamond, {agg: paths})
        assert result.fits
        fractions = dict(result.fractions[agg])
        assert fractions[("s", "x", "t")] == pytest.approx(1.0)

    def test_overflow_splits(self, diamond):
        agg = Aggregate("s", "t", Gbps(20))
        paths = [("s", "x", "t"), ("s", "y", "t")]
        result = solve_latency_lp(diamond, {agg: paths})
        assert result.fits
        fractions = dict(result.fractions[agg])
        assert fractions[("s", "x", "t")] == pytest.approx(0.5, abs=0.01)

    def test_overload_reported(self, diamond):
        agg = Aggregate("s", "t", Gbps(100))
        paths = [("s", "x", "t"), ("s", "y", "t")]
        result = solve_latency_lp(diamond, {agg: paths})
        assert not result.fits
        assert result.max_overload == pytest.approx(2.0, rel=0.01)
        assert result.overloaded_links()

    def test_empty_rejected(self, diamond):
        with pytest.raises(ValueError):
            solve_latency_lp(diamond, {})
        agg = Aggregate("s", "t", Gbps(1))
        with pytest.raises(ValueError):
            solve_latency_lp(diamond, {agg: []})

    def test_overloaded_links_empty_when_fits(self, diamond):
        agg = Aggregate("s", "t", Gbps(1))
        result = solve_latency_lp(diamond, {agg: [("s", "x", "t")]})
        assert result.fits
        assert result.overloaded_links() == []
        assert result.overloaded_links(only_maximal=False) == []


class TestSolveMinMaxLp:
    def test_balances(self, diamond):
        agg = Aggregate("s", "t", Gbps(10))
        paths = [("s", "x", "t"), ("s", "y", "t")]
        fractions, umax = solve_minmax_lp(diamond, {agg: paths})
        # Equal utilization on both routes: u = 10 / (10 + 40) ... the LP
        # balances so that both paths hit the same utilization:
        # x/10 = (10-x)/40 -> x = 2 -> u = 0.2.
        assert umax == pytest.approx(0.2, abs=0.01)
        assert dict(fractions[agg])[("s", "x", "t")] == pytest.approx(
            0.2, abs=0.02
        )

    def test_stage2_respects_cap_and_minimizes_delay(self, diamond):
        agg = Aggregate("s", "t", Gbps(1))
        paths = [("s", "x", "t"), ("s", "y", "t")]
        fractions, umax = solve_minmax_lp(diamond, {agg: paths})
        # With trivial load, MinMax still balances to equalize utilization
        # but the latency tie-break applies only within the cap.
        total = sum(fraction for _, fraction in fractions[agg])
        assert total == pytest.approx(1.0)
        placement = Placement(diamond, normalize_allocations(fractions))
        assert placement.fits_all_traffic
