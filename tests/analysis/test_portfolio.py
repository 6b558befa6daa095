"""Tests for the portfolio stress assessment."""

import pytest

from repro.agility.cas import chip_agility_score
from repro.analysis.portfolio import (
    PortfolioAssessment,
    PortfolioEntry,
    assess_portfolio,
)
from repro.design.library import a11, raven_multicore, zen2
from repro.errors import InvalidParameterError
from repro.market import scenarios


@pytest.fixture(scope="module")
def assessment(model):
    portfolio = {
        "soc": PortfolioEntry(design=a11("28nm"), n_chips=10e6),
        "chiplet": PortfolioEntry(design=zen2(), n_chips=10e6),
        "mcu": PortfolioEntry(design=raven_multicore("180nm"), n_chips=100e6),
    }
    stress = {
        "shortage": scenarios.shortage_2021(),
        "advanced_drought": scenarios.advanced_drought(0.5),
        "fab_fire_28nm": scenarios.fab_fire("28nm", 0.3),
    }
    return assess_portfolio(model, portfolio, stress)


class TestAssessment:
    def test_matrix_complete(self, assessment):
        assert set(assessment.products) == {"soc", "chiplet", "mcu"}
        assert set(assessment.scenarios) == {
            "shortage",
            "advanced_drought",
            "fab_fire_28nm",
        }
        assert len(assessment.delta_weeks) == 9

    def test_deltas_never_negative(self, assessment):
        for delta in assessment.delta_weeks.values():
            assert delta >= -1e-9

    def test_global_queue_hits_everyone_equally(self, assessment):
        """A 4-week quote at full capacity adds ~4 weeks to every line."""
        for product in assessment.products:
            assert assessment.delta(product, "shortage") == pytest.approx(
                4.0, abs=0.1
            )

    def test_mcu_immune_to_advanced_drought(self, assessment):
        assert assessment.delta("mcu", "advanced_drought") == pytest.approx(
            0.0, abs=1e-6
        )

    def test_soc_exposed_to_its_own_node(self, assessment):
        assert assessment.delta("soc", "fab_fire_28nm") > 1.0
        assert assessment.most_exposed_product("fab_fire_28nm") == "soc"

    def test_chiplet_hit_by_advanced_drought(self, assessment):
        assert assessment.delta("chiplet", "advanced_drought") > 0.0

    def test_worst_scenario_lookup(self, assessment):
        assert assessment.worst_scenario_for("mcu") == "shortage"

    def test_cas_reported_for_everyone(self, assessment):
        for product in assessment.products:
            assert assessment.cas[product] > 0.0

    def test_table_renders(self, assessment):
        text = assessment.table()
        assert "nominal wk" in text and "mcu" in text


class TestValidation:
    def test_empty_portfolio_rejected(self, model):
        with pytest.raises(InvalidParameterError):
            assess_portfolio(model, {}, {"s": scenarios.nominal()})

    def test_empty_scenarios_rejected(self, model):
        entry = PortfolioEntry(design=a11("28nm"), n_chips=1e6)
        with pytest.raises(InvalidParameterError):
            assess_portfolio(model, {"soc": entry}, {})

    def test_non_positive_volume_rejected(self):
        with pytest.raises(InvalidParameterError):
            PortfolioEntry(design=a11("28nm"), n_chips=0.0)


def scalar_assessment(model, portfolio, stress):
    """The per-(product, scenario) scalar loop ``assess_portfolio``
    replaces: the oracle its one evaluation per scenario must equal."""
    nominal, agility, deltas = {}, {}, {}
    for product, entry in portfolio.items():
        nominal[product] = model.total_weeks(entry.design, entry.n_chips)
        agility[product] = chip_agility_score(
            model, entry.design, entry.n_chips
        ).normalized
        for scenario_name, conditions in stress.items():
            stressed = model.with_foundry(
                model.foundry.with_conditions(conditions)
            )
            deltas[(product, scenario_name)] = (
                stressed.total_weeks(entry.design, entry.n_chips)
                - nominal[product]
            )
    return PortfolioAssessment(
        nominal_ttm=nominal, cas=agility, delta_weeks=deltas
    )


class TestEngines:
    def test_portfolio_matches_scalar(self, model):
        portfolio = {
            "soc": PortfolioEntry(design=a11("28nm"), n_chips=10e6),
            "chiplet": PortfolioEntry(design=zen2(), n_chips=10e6),
        }
        stress = {
            "shortage": scenarios.shortage_2021(),
            "fab_fire_28nm": scenarios.fab_fire("28nm", 0.3),
        }
        fused = assess_portfolio(model, portfolio, stress)
        oracle = scalar_assessment(model, portfolio, stress)
        assert fused.products == oracle.products
        assert fused.scenarios == oracle.scenarios
        for product in oracle.products:
            assert fused.nominal_ttm[product] == pytest.approx(
                oracle.nominal_ttm[product], rel=1e-9
            )
            assert fused.cas[product] == pytest.approx(
                oracle.cas[product], rel=1e-9
            )
            for scenario in oracle.scenarios:
                assert fused.delta(product, scenario) == pytest.approx(
                    oracle.delta(product, scenario), rel=1e-9, abs=1e-9
                )
