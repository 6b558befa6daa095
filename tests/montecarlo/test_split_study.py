"""Tests for Monte Carlo studies over fixed production splits."""

import numpy as np
import pytest

from repro.design.library.raven import raven_multicore
from repro.errors import InvalidParameterError
from repro.montecarlo import (
    SampledParameter,
    SamplingSpec,
    compare_plans,
    default_supply_spec,
    plan_label,
    run_plan_study,
)
from repro.multiprocess.split import (
    evaluate_split,
    make_plan,
    single_process_plan,
)

N_CHIPS = 1e7


def _plan(split=0.6):
    return make_plan(raven_multicore, "28nm", "40nm", split)


def _spec(variation=0.1):
    return default_supply_spec(n_chips=N_CHIPS, variation=variation)


class TestRunPlanStudy:
    def test_produces_all_metrics(self, model, cost_model):
        result = run_plan_study(
            model,
            _plan(),
            _spec(),
            n_samples=128,
            seed=11,
            cost_model=cost_model,
            chunk_samples=64,
        )
        assert set(result.summaries) == {
            "ttm_weeks",
            "cas",
            "cost_per_chip_usd",
        }
        assert result.n_samples == 128
        assert result.processes == ("28nm", "40nm")
        assert "28nm|40nm@0.60" in result.design

    def test_without_cost_model_skips_cost(self, model):
        result = run_plan_study(
            model, _plan(), _spec(), n_samples=64, seed=1, chunk_samples=64
        )
        assert "cost_per_chip_usd" not in result.summaries

    def test_degenerate_spec_recovers_scalar_oracle(self, model, cost_model):
        # Zero variation collapses every draw to the spec's nominal
        # point; pinning that point at the model's own nominal market
        # (full capacity, empty queues) makes the sampled distribution a
        # point mass at the scalar evaluate_split values — the Monte
        # Carlo path goes through batch_split_samples, never through a
        # separate approximation.
        plan = _plan()
        result = run_plan_study(
            model,
            plan,
            default_supply_spec(
                n_chips=N_CHIPS,
                variation=0.0,
                queue_weeks=0.0,
                capacity=1.0,
            ),
            n_samples=64,
            seed=5,
            cost_model=cost_model,
            chunk_samples=32,
        )
        scalar = evaluate_split(plan, model, cost_model, N_CHIPS)
        assert result["ttm_weeks"].mean == pytest.approx(
            scalar.ttm_weeks, rel=1e-9
        )
        assert result["cas"].mean == pytest.approx(scalar.cas, rel=1e-9)
        assert result["cost_per_chip_usd"].mean == pytest.approx(
            scalar.cost_usd / N_CHIPS, rel=1e-9
        )

    def test_seeded_and_executor_deterministic(self, model):
        kwargs = dict(n_samples=96, seed=23, chunk_samples=32)
        serial = run_plan_study(model, _plan(), _spec(), **kwargs)
        thread = run_plan_study(
            model, _plan(), _spec(), executor="thread", **kwargs
        )
        assert serial.summaries["ttm_weeks"] == thread.summaries["ttm_weeks"]
        assert serial.summaries["cas"] == thread.summaries["cas"]

    def test_serial_equals_process(self, model, cost_model):
        # Process workers get the same chunk tasks as the serial path
        # and derive the line invariants themselves.
        kwargs = dict(
            n_samples=2048, seed=31, cost_model=cost_model, chunk_samples=512
        )
        serial = run_plan_study(model, _plan(), _spec(), **kwargs)
        process = run_plan_study(
            model, _plan(), _spec(), executor="process", max_workers=2,
            **kwargs,
        )
        assert set(serial.summaries) == {"ttm_weeks", "cas", "cost_per_chip_usd"}
        assert serial.summaries == process.summaries
        assert serial.curves == process.curves

    def test_rejects_doubly_sampled_capacity(self, model):
        from repro.market import scenarios
        from repro.montecarlo import DisruptionModel, EventEnsemble
        from repro.montecarlo.spec import Factor

        spec = SamplingSpec(
            n_chips=N_CHIPS,
            parameters=(
                SampledParameter(
                    "capacity", Factor("capacity", 0.9, 0.1)
                ),
            ),
        )
        disruptions = DisruptionModel(
            base=scenarios.nominal(),
            ensembles=(
                EventEnsemble(
                    "capacity_shock",
                    probability=0.5,
                    start_week=Factor("start", 4.0, 0.5),
                    duration_weeks=Factor("duration", 10.0, 0.5),
                    severity=Factor("severity", 0.5, 0.5),
                ),
            ),
        )
        with pytest.raises(InvalidParameterError, match="pick one"):
            run_plan_study(
                model,
                _plan(),
                spec,
                n_samples=32,
                seed=1,
                disruptions=disruptions,
            )


class TestComparePlans:
    def test_common_random_numbers_and_labels(self, model):
        plans = [_plan(0.6), single_process_plan(raven_multicore, "28nm")]
        results = compare_plans(
            model, plans, _spec(), n_samples=64, seed=9, chunk_samples=32
        )
        assert set(results) == {plan_label(p) for p in plans}
        for result in results.values():
            assert result.seed == 9

    def test_duplicate_plans_rejected(self, model):
        with pytest.raises(InvalidParameterError, match="duplicate"):
            compare_plans(
                model,
                [_plan(0.6), _plan(0.6)],
                _spec(),
                n_samples=32,
                seed=1,
            )


class TestPlanLabel:
    def test_two_node_label_names_allocation(self):
        assert plan_label(_plan(0.6)).endswith("[28nm|40nm@0.60]")

    def test_single_process_label(self):
        label = plan_label(single_process_plan(raven_multicore, "28nm"))
        assert label.endswith("[28nm]")
