"""Unit tests for geographic helpers."""

import numpy as np
import pytest

from repro.net.geo import (
    DEFAULT_ROUTE_FACTOR,
    EARTH_RADIUS_KM,
    FIBRE_SPEED_KM_PER_S,
    great_circle_km,
    great_circle_km_many,
    link_delay_s,
    propagation_delay_s,
)


class TestGreatCircle:
    def test_zero_distance(self):
        assert great_circle_km(51.5, 0.0, 51.5, 0.0) == 0.0

    def test_london_new_york(self):
        # Known reference: ~5570 km.
        distance = great_circle_km(51.5074, -0.1278, 40.7128, -74.0060)
        assert distance == pytest.approx(5570, rel=0.02)

    def test_quarter_circumference(self):
        # Pole to equator along a meridian.
        distance = great_circle_km(90.0, 0.0, 0.0, 0.0)
        import math

        assert distance == pytest.approx(math.pi * EARTH_RADIUS_KM / 2, rel=1e-6)

    def test_symmetry(self):
        d1 = great_circle_km(48.85, 2.35, 52.52, 13.40)
        d2 = great_circle_km(52.52, 13.40, 48.85, 2.35)
        assert d1 == pytest.approx(d2)

    def test_antipodal_is_half_circumference(self):
        import math

        distance = great_circle_km(0.0, 0.0, 0.0, 180.0)
        assert distance == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-6)

    def test_vectorized_matches_scalar(self):
        # The region-clustering fast path must agree with the scalar
        # haversine to float64 rounding.
        lats = np.array([51.5074, 40.7128, 90.0, 0.0, -33.86])
        lons = np.array([-0.1278, -74.0060, 0.0, 180.0, 151.21])
        many = great_circle_km_many(48.85, 2.35, lats, lons)
        for i in range(len(lats)):
            assert many[i] == pytest.approx(
                great_circle_km(48.85, 2.35, float(lats[i]), float(lons[i])),
                rel=1e-12,
            )


class TestPropagationDelay:
    def test_linear_in_distance(self):
        assert propagation_delay_s(2000) == pytest.approx(
            2000 * DEFAULT_ROUTE_FACTOR / FIBRE_SPEED_KM_PER_S
        )

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_s(-1.0)

    def test_thousand_km_is_roughly_5ms(self):
        # 1000 km of fibre with the default 1.2 route factor: 6 ms.
        assert propagation_delay_s(1000.0) == pytest.approx(6e-3)


class TestLinkDelay:
    def test_floor_for_colocated_pops(self):
        assert link_delay_s(50.0, 8.0, 50.0, 8.0) == pytest.approx(50e-6)

    def test_continental_link(self):
        # Paris to Berlin is ~878 km: delay should be around 5 ms.
        delay = link_delay_s(48.85, 2.35, 52.52, 13.40)
        assert 4e-3 < delay < 7e-3
