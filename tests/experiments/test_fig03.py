"""Fig. 3 reproduction checks."""

import pytest

from repro.agility.cas import chip_agility_score
from repro.design.library.generic import demo_chip_a, demo_chip_b
from repro.experiments import fig03_chip_ab


@pytest.fixture(scope="module")
def result(model):
    return fig03_chip_ab.run(model, fractions=(0.25, 0.5, 0.75, 1.0))


class TestFig03:
    def test_both_chips_present(self, result):
        assert set(result.ttm) == {"Chip A", "Chip B"}
        assert set(result.cas) == {"Chip A", "Chip B"}

    def test_chip_a_ttm_steeper(self, result):
        """Chip A's TTM climbs faster as capacity drops (the figure's
        defining feature)."""
        slope_a = result.ttm["Chip A"][0] - result.ttm["Chip A"][-1]
        slope_b = result.ttm["Chip B"][0] - result.ttm["Chip B"][-1]
        assert slope_a > slope_b

    def test_chip_b_higher_ttm_at_full_capacity(self, result):
        """Agility is not the same as being fast at max rate."""
        assert result.ttm["Chip B"][-1] > result.ttm["Chip A"][-1]

    def test_chip_b_more_agile_everywhere(self, result):
        for a, b in zip(result.cas["Chip A"], result.cas["Chip B"]):
            assert b > a

    def test_ttm_decreases_with_capacity(self, result):
        for series in result.ttm.values():
            assert list(series) == sorted(series, reverse=True)

    def test_cas_increases_with_capacity(self, result):
        for series in result.cas.values():
            assert list(series) == sorted(series)

    def test_table_renders(self, result):
        text = result.table()
        assert "Chip A TTM" in text
        assert "100" in text


class TestScalarOracle:
    def test_curves_match_the_scalar_model(self, model):
        fractions = (0.25, 0.5, 0.75, 1.0)
        result = fig03_chip_ab.run(model, fractions=fractions)
        designs = {"Chip A": demo_chip_a(), "Chip B": demo_chip_b()}
        assert set(result.ttm) == set(designs)
        for name, design in designs.items():
            for i, fraction in enumerate(fractions):
                stressed = model.at_capacity(fraction)
                assert result.ttm[name][i] == pytest.approx(
                    stressed.total_weeks(design, result.n_chips), rel=1e-9
                )
                assert result.cas[name][i] == pytest.approx(
                    chip_agility_score(
                        stressed, design, result.n_chips
                    ).normalized,
                    rel=1e-9,
                )
