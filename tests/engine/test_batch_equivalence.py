"""One-design evaluations must reproduce the scalar model to round-off.

The engine's contract is numerical: every ``evaluate`` TTM/CAS value of
a one-design portfolio matches the scalar ``TTMModel`` /
``chip_agility_score`` evaluation of the same point to <= 1e-9 relative
error, across the design library, schedules, quantities, capacities,
and queue-quoted market conditions.
"""

import numpy as np
import pytest

from repro.agility.cas import chip_agility_score
from repro.analysis.sweep import capacity_fractions, chip_quantities
from repro.design.library.a11 import a11
from repro.design.library.generic import demo_chip_a, demo_chip_b
from repro.design.library.zen2 import fig13_variants
from repro.engine.scenario import evaluate
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


def one_design(model, design, n_chips, metric, **knobs):
    """The design's row of scenario 0: TTM phases or CAS."""
    evaluation = evaluate(model, (design,), n_chips, (metric,), **knobs)
    return getattr(evaluation, metric)


def ttm_over_capacity(model, design, n_chips, fractions):
    return one_design(
        model, design, n_chips, "ttm", capacity=fractions
    ).total_weeks[0, 0]


def cas_over_capacity(model, design, n_chips, fractions):
    return one_design(
        model, design, n_chips, "cas", capacity=fractions
    ).normalized[0, 0]


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
        batched = one_design(
            nominal, design, QUANTITIES, "ttm"
        ).total_weeks[0, 0]
        scalar = [nominal.total_weeks(design, n) for n in QUANTITIES]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    def test_phase_breakdown_matches_scalar(self, nominal):
        design = a11("7nm")
        result = one_design(nominal, design, (1e6,), "ttm")
        scalar = nominal.time_to_market(design, 1e6)
        assert result.design_weeks[0] == pytest.approx(
            scalar.design_weeks, rel=RTOL
        )
        assert result.tapeout_weeks[0] == pytest.approx(
            scalar.tapeout_weeks, rel=RTOL
        )
        for phase in ("fabrication_weeks", "packaging_weeks", "total_weeks"):
            assert getattr(result, phase)[0, 0, 0] == pytest.approx(
                getattr(scalar, phase), rel=RTOL
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
        batched = one_design(model, design, QUANTITIES, "ttm").total_weeks
        scalar = [model.total_weeks(design, n) for n in QUANTITIES]
        np.testing.assert_allclose(batched[0, 0], scalar, rtol=RTOL)

    def test_quantity_capacity_broadcast(self, nominal):
        # A (quantity x capacity) grid, flattened onto the sample axis.
        design = a11("7nm")
        quantities, capacity = np.meshgrid(
            (1e4, 1e6), FRACTIONS, indexing="ij"
        )
        result = one_design(
            nominal, design, quantities.ravel(), "ttm",
            capacity=capacity.ravel(),
        )
        grid = result.total_weeks[0, 0].reshape(quantities.shape)
        assert grid.shape == (2, len(FRACTIONS))
        for i, n in enumerate((1e4, 1e6)):
            for j, f in enumerate(FRACTIONS):
                assert grid[i, j] == pytest.approx(
                    nominal.at_capacity(f).total_weeks(design, n), rel=RTOL
                )

    def test_rejects_nonpositive_inputs(self, nominal):
        design = a11("7nm")
        with pytest.raises(InvalidParameterError):
            one_design(nominal, design, (1e6, -1.0), "ttm")
        with pytest.raises(InvalidParameterError):
            one_design(nominal, design, 1e6, "ttm", capacity=(0.5, 0.0))


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

    def test_quantity_capacity_grid(self, nominal):
        # Every paper quantity x the default 20-point capacity sweep,
        # flattened onto the sample axis of one call.
        design = a11("7nm")
        quantities, capacity = np.meshgrid(
            chip_quantities(), capacity_fractions(), indexing="ij"
        )
        batched = one_design(
            nominal, design, quantities.ravel(), "cas",
            capacity=capacity.ravel(),
        ).normalized[0, 0]
        scalar = [
            chip_agility_score(nominal.at_capacity(f), design, n).normalized
            for n, f in zip(quantities.ravel(), capacity.ravel())
        ]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)
