"""Figs. 7 and 8 reproduction checks (A11 re-release and sensitivity)."""

import pytest

from repro.experiments import fig07_a11_ttm_cost, fig08_a11_sensitivity
from repro.experiments.fig07_a11_ttm_cost import headline_band


@pytest.fixture(scope="module")
def fig7(model, cost_model):
    return fig07_a11_ttm_cost.run(model, cost_model, band_samples=128)


@pytest.fixture(scope="module")
def fig8(model):
    return fig08_a11_sensitivity.run(
        model, processes=("250nm", "28nm", "7nm", "5nm"), base_samples=96
    )


class TestFig07:
    def test_28nm_fastest(self, fig7):
        assert fig7.fastest.process == "28nm"

    def test_headline_band_brackets_the_paper(self, fig7):
        """Paper: +73% (7nm) .. +116% (5nm) over the best node."""
        gain_7nm, gain_5nm = headline_band(fig7)
        assert 0.4 < gain_7nm < 1.0
        assert 0.8 < gain_5nm < 1.5
        assert gain_5nm > gain_7nm

    def test_tapeout_grows_toward_advanced_nodes(self, fig7):
        tapeouts = [node.tapeout_weeks for node in fig7.nodes]
        assert tapeouts == sorted(tapeouts)

    def test_packaging_shrinks_toward_advanced_nodes(self, fig7):
        packaging = [node.packaging_weeks for node in fig7.nodes]
        assert packaging == sorted(packaging, reverse=True)

    def test_legacy_rerelease_most_expensive(self, fig7):
        costs = {node.process: node.cost_usd for node in fig7.nodes}
        assert costs["250nm"] == max(costs.values())

    def test_confidence_bands_bracket_the_point(self, fig7):
        for node in fig7.nodes:
            band = node.bands[0.10]
            assert band.lower < node.total_weeks < band.upper

    def test_wider_variance_wider_band(self, fig7):
        for node in fig7.nodes:
            assert (
                node.bands[0.25].interval_width
                > node.bands[0.10].interval_width
            )

    def test_bands_optional(self, model, cost_model):
        quick = fig07_a11_ttm_cost.run(
            model, cost_model, processes=("28nm",), with_bands=False
        )
        assert quick.nodes[0].bands == {}

    def test_table_renders(self, fig7):
        assert "28nm" in fig7.table()


class TestFig08:
    def test_legacy_dominated_by_ntt(self, fig8):
        """Fig. 8: at 250 nm total transistor count drives the variance."""
        assert fig8.dominant_factor("250nm") == "NTT"

    def test_mid_nodes_dominated_by_latency(self, fig8):
        assert fig8.dominant_factor("28nm") == "Lfab"
        assert fig8.dominant_factor("7nm") == "Lfab"

    def test_5nm_nut_rises(self, fig8):
        """The exponential tapeout effort makes NUT matter at 5 nm."""
        assert fig8.total_effect("NUT", "5nm") > 0.2
        assert fig8.total_effect("NUT", "250nm") < 0.05
        assert fig8.total_effect("NUT", "5nm") > fig8.total_effect(
            "NUT", "28nm"
        )

    def test_mu_w_matters_only_at_legacy(self, fig8):
        assert fig8.total_effect("muW", "250nm") > fig8.total_effect("muW", "7nm")

    def test_indices_in_unit_interval(self, fig8):
        for process in fig8.processes:
            for factor in ("NTT", "NUT", "D0", "muW", "Lfab", "LOSAT"):
                assert 0.0 <= fig8.total_effect(factor, process) <= 1.0

    def test_table_renders(self, fig8):
        text = fig8.table()
        assert "NTT" in text and "LOSAT" in text
