"""Tests for two-process production splits (Sec. 7).

A plan is scored by the one scalar plan evaluator, ``evaluate_allocation``,
over its ``allocations``.
"""

import pytest

from repro.design.library.raven import raven_multicore
from repro.errors import InvalidParameterError
from repro.multiprocess.allocation import evaluate_allocation
from repro.multiprocess.split import ProductionSplit, single_process_plan
from tests.split_oracle import scalar_evaluation


def _plan(split=0.5, primary="28nm", secondary="40nm"):
    return ProductionSplit(raven_multicore, primary, secondary, split)


def _evaluate(plan, model, cost_model, n_chips=1e9, with_cas=True):
    return evaluate_allocation(
        plan.design_factory, plan.allocations, model, cost_model, n_chips,
        with_cas=with_cas,
    )


class TestPlanStructure:
    def test_allocations(self):
        plan = _plan(split=0.7)
        assert plan.allocations == {"28nm": 0.7, "40nm": pytest.approx(0.3)}

    def test_single_process_degenerate(self):
        plan = single_process_plan(raven_multicore, "28nm")
        assert plan.is_single_process
        assert plan.allocations == {"28nm": 1.0}

    def test_full_split_drops_secondary(self):
        plan = _plan(split=1.0)
        assert plan.allocations == {"28nm": 1.0}

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            _plan(split=0.0)
        with pytest.raises(InvalidParameterError):
            _plan(split=1.5)
        with pytest.raises(InvalidParameterError):
            _plan(primary="28nm", secondary="28nm")


class TestTTM:
    def test_split_is_max_of_lines(self, model, cost_model):
        evaluation = _evaluate(_plan(), model, cost_model, with_cas=False)
        assert evaluation.ttm_weeks == pytest.approx(
            max(evaluation.line_weeks.values())
        )
        assert set(evaluation.line_weeks) == {"28nm", "40nm"}
        assert evaluation.cas == 0.0

    def test_single_process_matches_plain_model(self, model, cost_model):
        plan = single_process_plan(raven_multicore, "28nm")
        assert _evaluate(
            plan, model, cost_model, with_cas=False
        ).ttm_weeks == pytest.approx(
            model.total_weeks(raven_multicore("28nm"), 1e9)
        )

    def test_splitting_high_volume_reduces_ttm(self, model, cost_model):
        """Sec. 7: parallel manufacturing shortens mass production."""
        single = _evaluate(
            single_process_plan(raven_multicore, "28nm"), model, cost_model,
            with_cas=False,
        )
        split = _evaluate(_plan(split=0.6), model, cost_model, with_cas=False)
        assert split.ttm_weeks < single.ttm_weeks

    def test_invalid_volume_rejected(self, model, cost_model):
        with pytest.raises(InvalidParameterError):
            _evaluate(_plan(), model, cost_model, n_chips=0.0)


class TestCost:
    def test_cost_sums_both_lines(self, model, cost_model):
        total = _evaluate(_plan(), model, cost_model, with_cas=False).cost_usd
        manual = cost_model.total_usd(
            raven_multicore("28nm"), 5e8
        ) + cost_model.total_usd(raven_multicore("40nm"), 5e8)
        assert total == pytest.approx(manual)

    def test_two_nodes_pay_two_mask_sets(self, model, cost_model):
        single = _evaluate(
            single_process_plan(raven_multicore, "28nm"), model, cost_model,
            with_cas=False,
        )
        split = _evaluate(
            _plan(split=0.999), model, cost_model, with_cas=False
        )
        # A token second line still pays its full NRE.
        assert split.cost_usd > single.cost_usd


class TestCAS:
    def test_split_cas_positive(self, model, cost_model):
        assert _evaluate(_plan(), model, cost_model).cas > 0.0

    def test_balanced_split_more_agile_than_single(self, model, cost_model):
        single = _evaluate(
            single_process_plan(raven_multicore, "28nm"), model, cost_model
        )
        balanced = _evaluate(_plan(split=0.6), model, cost_model)
        assert balanced.cas > single.cas

    def test_evaluation_bundles_everything(self, model, cost_model):
        evaluation = scalar_evaluation(
            raven_multicore, "28nm", "40nm", 0.5, model, cost_model, 1e9
        )
        assert evaluation.cas > 0.0
        assert evaluation.cas_normalized == pytest.approx(evaluation.cas / 1000)
        assert evaluation.bottleneck_process in {"28nm", "40nm"}
