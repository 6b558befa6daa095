"""Tests for the Monte Carlo study runner.

Covers the acceptance contract of the subsystem: bit-for-bit
reproducibility for a fixed seed, scalar-model equivalence of the
sampled evaluation path, and the guarantee that studies never fall back
to scalar ``TTMModel`` calls.
"""

import numpy as np
import pytest

from repro.agility.cas import chip_agility_score
from repro.cost.model import CostModel
from repro.design.library import a11, zen2
from repro.economics import MarketWindow
from repro.errors import InvalidParameterError
from repro.market.conditions import MarketConditions
from repro.market.foundry import Foundry
from repro.montecarlo.spec import (
    SampledParameter,
    SamplingSpec,
    default_supply_spec,
)
from repro.montecarlo.study import chunk_sizes, compare_designs, run_study
from repro.sensitivity.distributions import Factor
from repro.ttm.model import TTMModel


class TestChunkSizes:
    def test_layout(self):
        assert chunk_sizes(10, 4) == (4, 4, 2)
        assert chunk_sizes(8, 4) == (4, 4)
        assert chunk_sizes(3, 100) == (3,)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            chunk_sizes(0, 4)
        with pytest.raises(InvalidParameterError):
            chunk_sizes(4, 0)


class TestSeedDeterminism:
    def test_same_seed_reproduces(self, model):
        spec = default_supply_spec(n_chips=5e6)
        first = run_study(model, a11("7nm"), spec, 300, seed=5)
        again = run_study(model, a11("7nm"), spec, 300, seed=5)
        other = run_study(model, a11("7nm"), spec, 300, seed=6)
        assert first.summaries == again.summaries
        assert first.summaries != other.summaries


class TestScalarEquivalence:
    """The sampled batch path reproduces per-sample scalar model results."""

    def test_percentiles_match_scalar_reconstruction(self, db):
        n = 64
        seed = 11
        spec = default_supply_spec(n_chips=2e6)
        model = TTMModel.nominal(db)
        cost_model = CostModel.nominal(db)
        design = a11("7nm")
        result = run_study(
            model,
            design,
            spec,
            n_samples=n,
            seed=seed,
            cost_model=cost_model,
            chunk_samples=n,
        )
        # Reconstruct the study's single chunk draw: chunk 0's rng is
        # spawned from the study seed by index.
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        draws = spec.sample(n, rng)
        ttm = np.empty(n)
        cas = np.empty(n)
        cost = np.empty(n)
        for i in range(n):
            overrides = {
                name: {
                    "defect_density_per_cm2": db[name].defect_density_per_cm2
                    * draws.d0_scale[i],
                    "wafer_rate_kwpm": db[name].wafer_rate_kwpm
                    * draws.wafer_rate_scale[i],
                }
                for name in db.names
            }
            sampled_db = db.override(overrides)
            conditions = MarketConditions(
                default_capacity=draws.capacity[i],
                default_queue_weeks=draws.queue_weeks[i],
            )
            scalar = TTMModel(
                foundry=Foundry(technology=sampled_db, conditions=conditions)
            )
            quantity = draws.n_chips[i]
            ttm[i] = scalar.total_weeks(design, quantity)
            cas[i] = chip_agility_score(scalar, design, quantity).cas
            cost[i] = CostModel(technology=sampled_db).chip_creation_cost(
                design, quantity
            ).usd_per_chip
        for metric, scalar_samples in (
            ("ttm_weeks", ttm), ("cas", cas), ("cost_per_chip_usd", cost),
        ):
            summary = result[metric]
            assert summary.mean == pytest.approx(
                np.mean(scalar_samples), rel=1e-9
            )
            for p, value in summary.percentiles.items():
                assert value == pytest.approx(
                    np.percentile(scalar_samples, p), rel=1e-9
                )


class TestNoScalarFallback:
    """Acceptance: a 10k-sample A11 study never calls scalar TTM methods."""

    def test_ten_thousand_samples_stay_on_batch_kernels(
        self, model, cost_model, monkeypatch
    ):
        def forbidden(self, *args, **kwargs):
            raise AssertionError(
                "scalar TTMModel evaluation during a Monte Carlo study"
            )

        monkeypatch.setattr(TTMModel, "time_to_market", forbidden)
        monkeypatch.setattr(TTMModel, "total_weeks", forbidden)
        result = run_study(
            model,
            a11("7nm"),
            default_supply_spec(n_chips=1e7),
            n_samples=10_000,
            seed=7,
            cost_model=cost_model,
        )
        assert result.n_samples == 10_000
        assert result["ttm_weeks"].n_samples == 10_000
        assert np.isfinite(result["ttm_weeks"].mean)


class TestStudyOptions:
    def test_window_adds_revenue_loss_metric(self, model):
        window = MarketWindow(window_weeks=104.0, peak_weekly_revenue_usd=1e7)
        result = run_study(
            model,
            a11("7nm"),
            default_supply_spec(n_chips=5e6),
            n_samples=400,
            seed=1,
            window=window,
        )
        loss = result["revenue_loss_fraction"]
        assert loss.tail == "upper"
        assert 0.0 <= loss.minimum <= loss.maximum <= 1.0

    def test_rejects_double_capacity_sampling(self, model):
        from repro.experiments.mc_disruption import disruption_model

        with pytest.raises(InvalidParameterError, match="capacity"):
            run_study(
                model,
                a11("7nm"),
                default_supply_spec(n_chips=1e6),
                n_samples=10,
                seed=0,
                disruptions=disruption_model(),
            )

    def test_disruption_study_widens_the_ttm_tail(self, model, cost_model):
        from repro.experiments.mc_disruption import (
            disruption_model,
            supply_spec,
        )

        spec = supply_spec(n_chips=5e6)
        calm = run_study(
            model, a11("7nm"), spec, n_samples=800, seed=3,
        )
        disrupted = run_study(
            model,
            a11("7nm"),
            spec,
            n_samples=800,
            seed=3,
            disruptions=disruption_model(),
        )
        assert disrupted["ttm_weeks"].maximum > calm["ttm_weeks"].maximum
        assert disrupted["ttm_weeks"].cvar > calm["ttm_weeks"].cvar

    def test_compare_designs_shares_draws(self, model):
        spec = default_supply_spec(n_chips=5e6)
        results = compare_designs(
            model, (a11("7nm"), zen2()), spec, n_samples=300, seed=4
        )
        assert set(results) == {"A11 @ 7nm", "Zen 2 (mixed chiplets)"}
        for result in results.values():
            assert result.seed == 4
            assert result.n_samples == 300


class TestCompareEngines:
    """A design's result in a comparison is bit for bit its own study,
    so no design leaks into another's row."""

    @pytest.fixture(scope="class")
    def studies(self, model, cost_model):
        spec = default_supply_spec(n_chips=5e6)
        designs = (a11("7nm"), zen2(), a11("28nm"))
        kwargs = dict(
            n_samples=240, seed=9, cost_model=cost_model, chunk_samples=64
        )
        compared = compare_designs(model, designs, spec, **kwargs)
        alone = {
            design.name: run_study(model, design, spec, **kwargs)
            for design in designs
        }
        return compared, alone

    def test_summaries_identical(self, studies):
        compared, alone = studies
        assert set(compared) == set(alone)
        for name in alone:
            assert set(compared[name].summaries) == set(alone[name].summaries)
            for metric, expected in alone[name].summaries.items():
                got = compared[name][metric]
                assert got.mean == expected.mean
                assert got.std == expected.std
                assert got.minimum == expected.minimum
                assert got.maximum == expected.maximum
                assert got.var == expected.var
                assert got.cvar == expected.cvar
                assert got.percentiles == expected.percentiles

    def test_curves_identical(self, studies):
        compared, alone = studies
        for name in alone:
            for metric, expected in alone[name].curves.items():
                got = compared[name].curves[metric]
                assert got.thresholds == expected.thresholds
                assert got.probabilities == expected.probabilities

    def test_disruption_draws_shared(self, model):
        from repro.experiments.mc_disruption import (
            disruption_model,
            supply_spec,
        )

        spec = supply_spec(n_chips=5e6)
        designs = (a11("7nm"), zen2())
        kwargs = dict(
            n_samples=160,
            seed=21,
            disruptions=disruption_model(),
            chunk_samples=48,
        )
        compared = compare_designs(model, designs, spec, **kwargs)
        for design in designs:
            expected = run_study(model, design, spec, **kwargs)["ttm_weeks"]
            got = compared[design.name]["ttm_weeks"]
            assert got.mean == expected.mean
            assert got.maximum == expected.maximum
