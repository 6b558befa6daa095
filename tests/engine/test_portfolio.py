"""Portfolio kernels vs the scalar model, cell for cell.

The contract (DESIGN.md S18): cell ``(i, s)`` of every ``portfolio_*``
tensor equals the scalar ``TTMModel`` / ``chip_agility_score`` /
``CostModel`` evaluation of design ``i`` under sample ``s``'s supply
(D0 and wafer-rate draws applied through ``TechnologyDatabase.override``)
to <= 1e-9. These tests sweep the supply knobs (capacity as None /
global scalar / shared vector / per-node mapping, queue overrides,
defect-density and wafer-rate scales, per-design demand matrices), mix
single- and multi-node designs so the padded node slots are exercised,
and pin the validation errors and the compile cache behaviour.
"""

import dataclasses
from typing import Mapping

import numpy as np
import pytest

from repro.agility.cas import chip_agility_score
from repro.design.library.a11 import a11
from repro.design.library.ariane import ariane_manycore
from repro.design.library.zen2 import fig13_variants, zen2, zen2_monolithic
from repro.engine.invariants import (
    clear_invariant_cache,
    invariant_cache_info,
)
from repro.engine.portfolio import (
    compile_portfolio,
    portfolio_cas,
    portfolio_cas_over_capacity,
    portfolio_cost,
    portfolio_fingerprint,
    portfolio_ttm,
    portfolio_ttm_over_capacity,
)
from repro.errors import InvalidParameterError
from repro.market.foundry import Foundry

TOLERANCE = 1e-9
N_CHIPS = 2.5e7


@pytest.fixture
def mixed_designs():
    """Single-node and multi-node designs in one portfolio (padding)."""
    return (
        a11("7nm"),
        zen2(),  # 7 nm compute + 12 nm I/O chiplets
        zen2_monolithic("7nm"),
        ariane_manycore("28nm", cores=8),
    )


def scaled_technology(technology, d0_scale=None, wafer_rate_scale=None):
    """``technology`` with every node's D0 and max rate scaled."""
    if d0_scale is None and wafer_rate_scale is None:
        return technology
    return technology.override({
        node.name: {
            "defect_density_per_cm2": node.defect_density_per_cm2
            * (1.0 if d0_scale is None else d0_scale),
            "wafer_rate_kwpm": node.wafer_rate_kwpm
            * (1.0 if wafer_rate_scale is None else wafer_rate_scale),
        }
        for node in technology.nodes
    })


def sample_model(
    model,
    capacity=None,
    queue_weeks=None,
    d0_scale=None,
    wafer_rate_scale=None,
):
    """The scalar model under one sample's supply."""
    conditions = model.foundry.conditions
    if isinstance(capacity, Mapping):
        for node, fraction in capacity.items():
            conditions = conditions.with_capacity(node, fraction)
    elif capacity is not None:
        conditions = conditions.with_global_capacity(capacity)
    if queue_weeks is not None:
        conditions = conditions.with_global_queue(queue_weeks)
    technology = scaled_technology(
        model.foundry.technology, d0_scale, wafer_rate_scale
    )
    return model.with_foundry(
        Foundry(technology=technology, conditions=conditions)
    )


def assert_cells(matrix, oracle):
    """Every cell within TOLERANCE of the ``(designs, samples)`` oracle."""
    got, expected = np.broadcast_arrays(
        np.asarray(matrix, dtype=float), np.asarray(oracle, dtype=float)
    )
    assert float(np.max(np.abs(got - expected))) <= TOLERANCE


def assert_relative(matrix, oracle):
    """Every cell within TOLERANCE relative error."""
    np.testing.assert_allclose(
        np.broadcast_arrays(np.asarray(matrix, dtype=float), oracle)[0],
        oracle,
        rtol=TOLERANCE,
        atol=0.0,
    )


def capacity_samples(capacity):
    """One scalar capacity (or per-node mapping) per sample."""
    if isinstance(capacity, Mapping):
        width = max(np.size(values) for values in capacity.values())
        return [
            {
                node: float(np.broadcast_to(values, (width,))[j])
                for node, values in capacity.items()
            }
            for j in range(width)
        ]
    return [float(f) for f in np.atleast_1d(capacity)]


class TestTTMEquivalence:
    def test_current_conditions(self, model, mixed_designs):
        result = portfolio_ttm(model, mixed_designs, N_CHIPS)
        assert result.total_weeks.shape == (len(mixed_designs), 1)
        assert_cells(
            result.total_weeks,
            [[model.total_weeks(design, N_CHIPS)] for design in mixed_designs],
        )

    @pytest.mark.parametrize(
        "capacity",
        [
            0.4,
            (0.25, 0.5, 0.75, 1.0),
            {"7nm": 0.3},
            {"7nm": (0.3, 0.6), "12nm": (0.9, 0.5)},
        ],
        ids=["scalar", "vector", "one-node", "per-node-vectors"],
    )
    def test_capacity_forms(self, model, mixed_designs, capacity):
        result = portfolio_ttm(
            model, mixed_designs, N_CHIPS, capacity=capacity
        )
        oracle = [
            [
                sample_model(model, capacity=sample).time_to_market(
                    design, N_CHIPS
                )
                for sample in capacity_samples(capacity)
            ]
            for design in mixed_designs
        ]
        for field in (
            "tapeout_weeks",
            "fabrication_weeks",
            "packaging_weeks",
            "total_weeks",
        ):
            assert_cells(
                getattr(result, field),
                [[getattr(r, field) for r in row] for row in oracle],
            )
        assert_relative(
            result.total_wafers,
            [[r.total_wafers for r in row] for row in oracle],
        )

    def test_supply_samples(self, model, mixed_designs):
        rng = np.random.default_rng(11)
        samples = 32
        capacity = rng.uniform(0.2, 1.0, samples)
        queue_weeks = rng.uniform(0.0, 25.0, samples)
        d0_scale = rng.uniform(0.5, 2.0, samples)
        rate_scale = rng.uniform(0.6, 1.4, samples)
        result = portfolio_ttm(
            model,
            mixed_designs,
            N_CHIPS,
            capacity=capacity,
            queue_weeks=queue_weeks,
            d0_scale=d0_scale,
            wafer_rate_scale=rate_scale,
        )
        models = [
            sample_model(
                model,
                capacity=capacity[j],
                queue_weeks=queue_weeks[j],
                d0_scale=d0_scale[j],
                wafer_rate_scale=rate_scale[j],
            )
            for j in range(samples)
        ]
        assert_cells(
            result.total_weeks,
            [
                [m.total_weeks(design, N_CHIPS) for m in models]
                for design in mixed_designs
            ],
        )

    def test_per_design_demand_matrix(self, model, mixed_designs):
        rng = np.random.default_rng(12)
        demand = rng.uniform(1e6, 1e8, (len(mixed_designs), 16))
        result = portfolio_ttm(model, mixed_designs, demand)
        assert_cells(
            result.total_weeks,
            [
                [model.total_weeks(design, n) for n in demand[i]]
                for i, design in enumerate(mixed_designs)
            ],
        )

    def test_sequential_schedule(self, mixed_designs, model):
        sequential = type(model)(
            foundry=model.foundry, schedule="sequential"
        )
        result = portfolio_ttm(
            sequential, mixed_designs, N_CHIPS, capacity=(0.5, 1.0)
        )
        assert_cells(
            result.total_weeks,
            [
                [
                    sequential.at_capacity(f).total_weeks(design, N_CHIPS)
                    for f in (0.5, 1.0)
                ]
                for design in mixed_designs
            ],
        )

    def test_over_capacity_convenience(self, model, mixed_designs):
        fractions = (0.25, 0.5, 1.0)
        matrix = portfolio_ttm_over_capacity(
            model, mixed_designs, N_CHIPS, fractions
        )
        assert matrix.shape == (len(mixed_designs), len(fractions))
        assert_cells(
            matrix,
            [
                [
                    model.at_capacity(f).total_weeks(design, N_CHIPS)
                    for f in fractions
                ]
                for design in mixed_designs
            ],
        )


class TestCASEquivalence:
    def test_padded_slots_have_zero_sensitivity(self, model, mixed_designs):
        result = portfolio_cas(model, mixed_designs, N_CHIPS)
        for i, design in enumerate(mixed_designs):
            used = len(result.processes[i])
            assert np.all(result.sensitivity[i, used:, :] == 0.0)

    def test_matches_scalar_cas(self, model, mixed_designs):
        fractions = (0.3, 0.65, 1.0)
        result = portfolio_cas(
            model, mixed_designs, N_CHIPS, capacity=fractions
        )
        for i, design in enumerate(mixed_designs):
            oracle = [
                chip_agility_score(model.at_capacity(f), design, N_CHIPS)
                for f in fractions
            ]
            # Central differences amplify round-off, so CAS is pinned
            # relative, as in the batch equivalence suite.
            assert_relative(result.cas[i], [r.cas for r in oracle])
            for slot, process in enumerate(result.processes[i]):
                assert_relative(
                    result.sensitivity[i, slot, :],
                    [r.sensitivity[process] for r in oracle],
                )

    def test_over_capacity_matches_fig13_oracle(self, model, mixed_designs):
        fractions = (0.4, 0.8)
        matrix = portfolio_cas_over_capacity(
            model, mixed_designs, N_CHIPS, fractions
        )
        assert_relative(
            matrix,
            [
                [
                    chip_agility_score(
                        model.at_capacity(f), design, N_CHIPS
                    ).normalized
                    for f in fractions
                ]
                for design in mixed_designs
            ],
        )


class TestCostEquivalence:
    def test_matches_scalar_cost(self, cost_model, mixed_designs):
        rng = np.random.default_rng(13)
        demand = rng.uniform(1e6, 1e8, 16)
        d0_scale = rng.uniform(0.5, 2.0, 16)
        result = portfolio_cost(
            cost_model, mixed_designs, demand, d0_scale=d0_scale
        )
        models = [
            dataclasses.replace(
                cost_model,
                technology=scaled_technology(cost_model.technology, d),
            )
            for d in d0_scale
        ]
        for i, design in enumerate(mixed_designs):
            oracle = [
                m.chip_creation_cost(design, n)
                for m, n in zip(models, demand)
            ]
            assert result.engineering_usd[i] == pytest.approx(
                oracle[0].engineering_usd, rel=TOLERANCE
            )
            assert result.fixed_usd[i] == oracle[0].fixed_usd
            assert result.mask_usd[i] == oracle[0].mask_usd
            for field in (
                "wafer_usd",
                "testing_usd",
                "packaging_usd",
                "total_usd",
            ):
                assert_relative(
                    getattr(result, field)[i],
                    [getattr(r, field) for r in oracle],
                )

    def test_per_design_demand_matrix(self, cost_model, mixed_designs):
        rng = np.random.default_rng(14)
        demand = rng.uniform(1e6, 1e8, (len(mixed_designs), 8))
        result = portfolio_cost(cost_model, mixed_designs, demand)
        assert_relative(
            result.total_usd,
            [
                [cost_model.total_usd(design, n) for n in demand[i]]
                for i, design in enumerate(mixed_designs)
            ],
        )

    def test_fig13_variants_cost_panel(self, cost_model):
        variants = fig13_variants()
        quantities = (10e6, 50e6, 100e6)
        result = portfolio_cost(cost_model, variants, quantities)
        assert_relative(
            result.total_usd,
            [
                [cost_model.total_usd(design, n) for n in quantities]
                for design in variants
            ],
        )


class TestValidation:
    def test_empty_portfolio_rejected(self, db):
        with pytest.raises(InvalidParameterError, match="at least one"):
            compile_portfolio((), db)

    def test_two_dimensional_capacity_rejected(self, model, mixed_designs):
        with pytest.raises(
            InvalidParameterError, match="common random numbers"
        ):
            portfolio_ttm(
                model,
                mixed_designs,
                N_CHIPS,
                capacity=np.full((2, 3), 0.5),
            )

    def test_two_dimensional_queue_rejected(self, model, mixed_designs):
        with pytest.raises(
            InvalidParameterError, match="common random numbers"
        ):
            portfolio_ttm(
                model,
                mixed_designs,
                N_CHIPS,
                queue_weeks=np.full((2, 3), 1.0),
            )

    def test_wrong_leading_demand_dimension_rejected(
        self, model, mixed_designs
    ):
        with pytest.raises(
            InvalidParameterError, match=r"\(n_designs, n_samples\)"
        ):
            portfolio_ttm(
                model,
                mixed_designs,
                np.full((len(mixed_designs) + 1, 4), 1e6),
            )

    def test_zero_capacity_names_the_node(self, model, mixed_designs):
        conditions = model.foundry.conditions.with_capacity("7nm", 0.0)
        stalled = model.with_foundry(
            model.foundry.with_conditions(conditions)
        )
        with pytest.raises(
            InvalidParameterError, match="'7nm' has zero effective capacity"
        ):
            portfolio_ttm(stalled, mixed_designs, N_CHIPS)

    def test_zero_sensitivity_names_the_design(self, model):
        # A tiny volume makes every node slope vanish for that design.
        designs = (a11("7nm"), a11("28nm"))
        with pytest.raises(
            InvalidParameterError, match="zero TTM sensitivity"
        ):
            portfolio_cas(model, designs, 1e-6)


class TestCompileCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_invariant_cache()
        yield
        clear_invariant_cache()

    def test_shared_entry_across_kernels(self, model, db, mixed_designs):
        compiled = compile_portfolio(mixed_designs, db)
        again = compile_portfolio(mixed_designs, db)
        assert again is compiled
        info = invariant_cache_info()
        # One miss for the compiled table, however many designs it holds.
        assert info["misses"] == 1
        assert info["hits"] >= 1

    def test_fingerprint_distinguishes_design_order(self, db, mixed_designs):
        forward = portfolio_fingerprint(mixed_designs, db)
        reversed_key = portfolio_fingerprint(mixed_designs[::-1], db)
        assert forward != reversed_key

    def test_fingerprint_includes_model_knobs(self, db, mixed_designs):
        default = portfolio_fingerprint(mixed_designs, db)
        assert default != portfolio_fingerprint(
            mixed_designs, db, engineers=200
        )
        assert default != portfolio_fingerprint(
            mixed_designs, db, edge_corrected=True
        )

    def test_kernels_reuse_one_compiled_portfolio(self, model, mixed_designs):
        portfolio_ttm(model, mixed_designs, N_CHIPS)
        misses_after_first = invariant_cache_info()["misses"]
        portfolio_cas(model, mixed_designs, N_CHIPS)
        portfolio_ttm(model, mixed_designs, N_CHIPS, capacity=0.5)
        assert invariant_cache_info()["misses"] == misses_after_first
