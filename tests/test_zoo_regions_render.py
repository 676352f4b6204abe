"""Remaining small units: region sampling and renderer formatting."""

from repro.experiments.render import render_series
from repro.net.zoo import CENTRAL_EUROPE, EUROPE, NORTH_AMERICA, Region


class TestRegionSampling:
    def test_samples_within_bounds(self, rng):
        for region in (EUROPE, NORTH_AMERICA, CENTRAL_EUROPE):
            for lat, lon in region.sample(rng, 50):
                assert region.lat_min <= lat <= region.lat_max
                assert region.lon_min <= lon <= region.lon_max

    def test_sample_count(self, rng):
        assert len(EUROPE.sample(rng, 7)) == 7

    def test_custom_region(self, rng):
        tiny = Region("tiny", 10.0, 11.0, 20.0, 21.0)
        lat, lon = tiny.sample(rng, 1)[0]
        assert 10.0 <= lat <= 11.0 and 20.0 <= lon <= 21.0


class TestRenderSeriesFormatting:
    def test_missing_cells_blank(self):
        text = render_series(
            "t", {"a": [(1.0, 2.0)], "b": [(3.0, 4.0)]}
        )
        rows = text.splitlines()[2:]
        assert len(rows) == 2
        # Each series appears only on its own x row.
        assert "2.000" in rows[0] and "4.000" not in rows[0]
        assert "4.000" in rows[1] and "2.000" not in rows[1]

    def test_shared_x_merges(self):
        text = render_series(
            "t", {"a": [(1.0, 2.0)], "b": [(1.0, 3.0)]}
        )
        rows = text.splitlines()[2:]
        assert len(rows) == 1
        assert "2.000" in rows[0] and "3.000" in rows[0]
