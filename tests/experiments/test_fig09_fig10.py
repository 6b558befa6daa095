"""Figs. 9 and 10 reproduction checks (A11 CAS curves and TTM matrix)."""

import pytest

from repro.experiments import fig09_a11_cas, fig10_a11_matrix


@pytest.fixture(scope="module")
def fig9(model):
    return fig09_a11_cas.run(model, fractions=(0.25, 0.5, 0.75, 1.0))


@pytest.fixture(scope="module")
def fig10(model):
    return fig10_a11_matrix.run(model)


class TestFig09:
    def test_7nm_has_highest_cas(self, fig9):
        ranking = fig9.ranking_at_full_capacity()
        assert ranking[0] == "7nm"

    def test_14nm_above_5nm(self, fig9):
        full = fig9.at_full_capacity()
        assert full["14nm"] > full["5nm"]

    def test_40nm_lowest(self, fig9):
        ranking = fig9.ranking_at_full_capacity()
        assert ranking[-1] == "40nm"

    def test_curves_fall_with_capacity(self, fig9):
        for series in fig9.series.values():
            assert list(series) == sorted(series)

    def test_table_renders(self, fig9):
        assert "7nm" in fig9.table()

    def test_optional_cas_bands(self, model):
        """The shaded-region CIs bracket the point CAS per node."""
        banded = fig09_a11_cas.run(
            model,
            processes=("7nm", "5nm"),
            fractions=(1.0,),
            with_bands=True,
            band_samples=48,
        )
        for process in ("7nm", "5nm"):
            point = banded.series[process][-1]
            band = banded.bands[process][0.10]
            assert band.lower < point < band.upper
            wide = banded.bands[process][0.25]
            assert wide.interval_width > band.interval_width


class TestFig10:
    def test_shape(self, fig10):
        assert len(fig10.processes) == 10
        assert len(fig10.quantities) == 6
        assert len(fig10.ttm) == 60

    def test_small_runs_prefer_legacy(self, fig10):
        """Row 1K: the fastest node sits in the legacy half."""
        assert fig10.fastest_for(1e3) in {
            "250nm", "180nm", "130nm", "90nm", "65nm", "40nm", "28nm"
        }

    def test_mass_production_prefers_28nm(self, fig10):
        assert fig10.fastest_for(1e7) == "28nm"

    def test_ttm_monotone_in_volume_per_node(self, fig10):
        for process in fig10.processes:
            series = [fig10.ttm[(process, n)] for n in fig10.quantities]
            assert series == sorted(series)

    def test_180nm_beats_130_90_even_at_100m(self, fig10):
        """Paper: 180 nm outruns 130/90 nm 'even up to 100M chips'."""
        row = {p: fig10.ttm[(p, 1e8)] for p in ("180nm", "130nm", "90nm")}
        assert row["180nm"] < row["130nm"]
        assert row["180nm"] < row["90nm"]

    def test_180nm_beats_130nm_at_every_volume(self, fig10):
        """The faster wafer line wins at every row of the matrix."""
        for n in fig10.quantities:
            assert fig10.ttm[("180nm", n)] < fig10.ttm[("130nm", n)]

    def test_volume_insensitive_nodes_at_small_runs(self, fig10):
        """At tiny volumes TTM is all latency: rows 1K and 10K match."""
        for process in fig10.processes:
            assert fig10.ttm[(process, 1e3)] == pytest.approx(
                fig10.ttm[(process, 1e4)], rel=0.02
            )

    def test_table_marks_fastest(self, fig10):
        assert "fastest" in fig10.table()
