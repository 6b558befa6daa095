"""Batched kernels must reproduce the scalar model to round-off.

The engine's contract is numerical: every batched TTM/CAS value matches
the scalar ``TTMModel`` / ``chip_agility_score`` evaluation of the same
point to <= 1e-9 relative error, across the design library, schedules,
quantities, capacities, and queue-quoted market conditions.
"""

import numpy as np
import pytest

from repro.agility.cas import chip_agility_score
from repro.design.library.a11 import a11
from repro.design.library.generic import demo_chip_a, demo_chip_b
from repro.design.library.zen2 import fig13_variants
from repro.engine.batch import (
    batch_ttm,
    cas_over_capacity,
    ttm_over_capacity,
)
from repro.errors import InvalidParameterError
from repro.market.conditions import MarketConditions
from repro.ttm.model import TTMModel

RTOL = 1e-9

FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0)
QUANTITIES = (1e3, 1e5, 1e7)


def library_designs():
    designs = [
        demo_chip_a(),
        demo_chip_b(),
        a11("28nm"),
        a11("7nm"),
        a11("5nm"),
    ]
    designs.extend(fig13_variants())
    return designs


def design_ids():
    return [design.name for design in library_designs()]


@pytest.fixture(scope="module")
def nominal():
    return TTMModel.nominal()


class TestTTMEquivalence:
    @pytest.mark.parametrize(
        "design", library_designs(), ids=design_ids()
    )
    def test_matches_scalar_over_capacity(self, nominal, design):
        n_chips = 1e6
        batched = ttm_over_capacity(nominal, design, n_chips, FRACTIONS)
        scalar = [
            nominal.at_capacity(f).total_weeks(design, n_chips)
            for f in FRACTIONS
        ]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    @pytest.mark.parametrize(
        "design", library_designs(), ids=design_ids()
    )
    def test_matches_scalar_over_quantities(self, nominal, design):
        batched = batch_ttm(nominal, design, QUANTITIES).total_weeks
        scalar = [nominal.total_weeks(design, n) for n in QUANTITIES]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    def test_phase_breakdown_matches_scalar(self, nominal):
        design = a11("7nm")
        result = batch_ttm(nominal, design, (1e6,))
        scalar = nominal.time_to_market(design, 1e6)
        assert result.design_weeks == pytest.approx(
            scalar.design_weeks, rel=RTOL
        )
        assert result.tapeout_weeks[0] == pytest.approx(
            scalar.tapeout_weeks, rel=RTOL
        )
        assert result.fabrication_weeks[0] == pytest.approx(
            scalar.fabrication_weeks, rel=RTOL
        )
        assert result.packaging_weeks[0] == pytest.approx(
            scalar.packaging_weeks, rel=RTOL
        )
        assert result.total_weeks[0] == pytest.approx(
            scalar.total_weeks, rel=RTOL
        )

    def test_sequential_schedule(self, nominal):
        model = TTMModel.nominal(schedule="sequential")
        for design in (a11("7nm"), fig13_variants()[0]):
            batched = ttm_over_capacity(model, design, 1e6, FRACTIONS)
            scalar = [
                model.at_capacity(f).total_weeks(design, 1e6)
                for f in FRACTIONS
            ]
            np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    def test_current_conditions_with_queue_and_capacity(self, nominal):
        design = a11("7nm")
        conditions = (
            MarketConditions.nominal()
            .with_queue("7nm", 2.0)
            .with_capacity("7nm", 0.37)
        )
        model = nominal.with_foundry(
            nominal.foundry.with_conditions(conditions)
        )
        batched = batch_ttm(model, design, QUANTITIES).total_weeks
        scalar = [model.total_weeks(design, n) for n in QUANTITIES]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    def test_quantity_capacity_broadcast(self, nominal):
        design = a11("7nm")
        quantities = np.array([[1e4], [1e6]])
        capacity = np.array(FRACTIONS)
        result = batch_ttm(nominal, design, quantities, capacity)
        assert result.total_weeks.shape == (2, len(FRACTIONS))
        for i, n in enumerate((1e4, 1e6)):
            for j, f in enumerate(FRACTIONS):
                assert result.total_weeks[i, j] == pytest.approx(
                    nominal.at_capacity(f).total_weeks(design, n), rel=RTOL
                )

    def test_rejects_nonpositive_inputs(self, nominal):
        design = a11("7nm")
        with pytest.raises(InvalidParameterError):
            batch_ttm(nominal, design, (1e6, -1.0))
        with pytest.raises(InvalidParameterError):
            batch_ttm(nominal, design, 1e6, capacity=(0.5, 0.0))


class TestCASEquivalence:
    @pytest.mark.parametrize(
        "design", library_designs(), ids=design_ids()
    )
    def test_matches_scalar_over_capacity(self, nominal, design):
        n_chips = 1e6
        batched = cas_over_capacity(nominal, design, n_chips, FRACTIONS)
        scalar = [
            chip_agility_score(
                nominal.at_capacity(f), design, n_chips
            ).normalized
            for f in FRACTIONS
        ]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    def test_queue_quoted_model(self, nominal):
        design = a11("7nm")
        conditions = MarketConditions.nominal().with_queue("7nm", 1.0)
        model = nominal.with_foundry(
            nominal.foundry.with_conditions(conditions)
        )
        batched = cas_over_capacity(model, design, 1e7, FRACTIONS)
        scalar = [
            chip_agility_score(
                model.at_capacity(f), design, 1e7
            ).normalized
            for f in FRACTIONS
        ]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)
