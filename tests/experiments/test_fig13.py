"""Fig. 13 reproduction checks (chiplets & mixed-process)."""

import pytest

from repro.agility.cas import chip_agility_score
from repro.experiments import fig13_chiplets
from repro.design.library.zen2 import fig13_variants, zen2


@pytest.fixture(scope="module")
def result(model, cost_model):
    return fig13_chiplets.run(
        model,
        cost_model,
        quantities=(25e6, 50e6),
        fractions=(0.25, 0.5, 0.75, 1.0),
    )


class TestFig13TTM:
    def test_eight_variants(self, result):
        assert len(result.variants) == 8

    def test_mixed_faster_than_all_7nm(self, result):
        for mixed, chiplet in zip(
            result.ttm["Zen 2"], result.ttm["7nm chiplet"]
        ):
            assert mixed < chiplet

    def test_chiplets_beat_monolithic(self, result):
        assert result.ttm["7nm chiplet"][-1] < result.ttm["7nm monolithic"][-1]
        assert (
            result.ttm["12nm-class chiplet"][-1]
            < result.ttm["12nm-class monolithic"][-1]
        )

    def test_interposer_strictly_slower(self, result):
        for base, loaded in (
            ("Zen 2", "Zen 2 w/ interposer"),
            ("7nm chiplet", "7nm chiplet w/ interposer"),
            ("12nm-class chiplet", "12nm-class chiplet w/ interposer"),
        ):
            assert result.ttm[loaded][-1] > result.ttm[base][-1]


class TestFig13Cost:
    def test_mixed_costs_more_than_single_7nm(self, result):
        assert result.cost["Zen 2"][-1] > result.cost["7nm chiplet"][-1]

    def test_chiplets_cheaper_than_monolithic(self, result):
        assert result.cost["7nm chiplet"][-1] < result.cost["7nm monolithic"][-1]

    def test_interposer_costs_extra(self, result):
        assert (
            result.cost["Zen 2 w/ interposer"][-1] > result.cost["Zen 2"][-1]
        )


class TestFig13CAS:
    def test_mixed_most_agile_at_full_capacity(self, result):
        full = result.cas_at_full_capacity()
        assert full["Zen 2"] == max(
            full[name]
            for name in (
                "Zen 2",
                "7nm chiplet",
                "7nm monolithic",
                "12nm-class chiplet",
                "12nm-class monolithic",
            )
        )

    def test_agility_gains_in_paper_band(self, result):
        """Abstract: mixed is 24%-51% more agile than single-process
        chiplet / monolithic equivalents."""
        gains = fig13_chiplets.agility_gains(result)
        assert 0.1 < gains["7nm chiplet"] < 0.6
        assert 0.2 < gains["7nm monolithic"] < 0.8

    def test_chiplet_more_agile_than_monolithic(self, result):
        full = result.cas_at_full_capacity()
        assert full["7nm chiplet"] > full["7nm monolithic"]


class TestNodeDisruption:
    def test_mixed_design_vulnerable_on_both_nodes(self, model):
        """Sec. 6.5: mixed-process designs add vulnerability — a deep
        disruption on either of their nodes delays the chip."""
        outcomes = fig13_chiplets.node_disruption(
            zen2(), model, n_chips=50e6, capacity=0.05
        )
        assert outcomes["7nm"] > outcomes["nominal"]
        assert outcomes["14nm"] > outcomes["nominal"]

    def test_single_process_design_immune_to_other_nodes(self, model):
        outcomes = fig13_chiplets.node_disruption(
            zen2("7nm", "7nm"), model, n_chips=50e6, capacity=0.05
        )
        assert set(outcomes) == {"nominal", "7nm"}

    def test_table_renders(self, result):
        assert "Zen 2" in result.table()


class TestScalarOracle:
    def test_panels_match_the_scalar_model(self, model, cost_model):
        quantities = (10e6, 50e6)
        fractions = (0.3, 0.6, 1.0)
        result = fig13_chiplets.run(
            model, cost_model, quantities=quantities, fractions=fractions
        )
        variants = fig13_variants()
        assert result.variants == tuple(design.name for design in variants)
        for design in variants:
            name = design.name
            for i, n_chips in enumerate(quantities):
                assert result.ttm[name][i] == pytest.approx(
                    model.total_weeks(design, n_chips), rel=1e-9
                )
                assert result.cost[name][i] == pytest.approx(
                    cost_model.total_usd(design, n_chips), rel=1e-9
                )
            for i, fraction in enumerate(fractions):
                assert result.cas[name][i] == pytest.approx(
                    chip_agility_score(
                        model.at_capacity(fraction),
                        design,
                        fig13_chiplets.DEFAULT_CAS_N_CHIPS,
                    ).normalized,
                    rel=1e-9,
                )
