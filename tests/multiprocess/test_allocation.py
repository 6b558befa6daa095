"""Tests for the k-way production-allocation extension."""

import pytest

from repro.design.library.raven import raven_multicore
from repro.errors import InvalidParameterError
from repro.multiprocess.allocation import (
    balance_allocation,
    evaluate_allocation,
    greedy_node_selection,
)
from repro.multiprocess.split import single_process_plan, split_ttm_weeks

N_CHIPS = 1e9


class TestBalanceAllocation:
    def test_shares_sum_to_one(self, model):
        shares = balance_allocation(
            raven_multicore, ["28nm", "40nm"], model, N_CHIPS
        )
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_single_node_gets_everything(self, model):
        shares = balance_allocation(raven_multicore, ["28nm"], model, N_CHIPS)
        assert shares == {"28nm": pytest.approx(1.0)}

    def test_balanced_lines_finish_together(self, model):
        shares = balance_allocation(
            raven_multicore, ["28nm", "40nm"], model, N_CHIPS
        )
        line_weeks = {
            process: model.total_weeks(
                raven_multicore(process), N_CHIPS * share
            )
            for process, share in shares.items()
        }
        values = list(line_weeks.values())
        assert values[0] == pytest.approx(values[1], rel=0.01)

    def test_matches_fig14_grid_optimum(self, model, cost_model):
        """The closed-form balance agrees with the Fig. 14 grid search."""
        shares = balance_allocation(
            raven_multicore, ["28nm", "40nm"], model, N_CHIPS
        )
        balanced_ttm = max(
            model.total_weeks(raven_multicore(p), N_CHIPS * s)
            for p, s in shares.items()
        )
        from repro.multiprocess.split import make_plan

        grid_ttm = min(
            split_ttm_weeks(
                make_plan(raven_multicore, "28nm", "40nm", s / 50),
                model,
                N_CHIPS,
            )
            for s in range(1, 50)
        )
        assert balanced_ttm == pytest.approx(grid_ttm, rel=0.01)
        assert balanced_ttm <= grid_ttm + 1e-9

    def test_slow_fixed_nodes_are_dropped(self, model):
        """5 nm's tapeout + latency exceed the balanced finish time for
        this MCU, so the optimizer gives it zero share."""
        shares = balance_allocation(
            raven_multicore, ["28nm", "40nm", "5nm"], model, N_CHIPS
        )
        assert "5nm" not in shares
        assert set(shares) == {"28nm", "40nm"}

    def test_validation(self, model):
        with pytest.raises(InvalidParameterError):
            balance_allocation(raven_multicore, [], model, N_CHIPS)
        with pytest.raises(InvalidParameterError):
            balance_allocation(
                raven_multicore, ["28nm", "28nm"], model, N_CHIPS
            )


class TestEvaluateAllocation:
    def test_matches_two_way_split(self, model, cost_model):
        from repro.multiprocess.split import evaluate_split, make_plan

        shares = {"28nm": 0.6, "40nm": 0.4}
        k_way = evaluate_allocation(
            raven_multicore, shares, model, cost_model, N_CHIPS
        )
        two_way = evaluate_split(
            make_plan(raven_multicore, "28nm", "40nm", 0.6),
            model,
            cost_model,
            N_CHIPS,
        )
        assert k_way.ttm_weeks == pytest.approx(two_way.ttm_weeks)
        assert k_way.cost_usd == pytest.approx(two_way.cost_usd)
        assert k_way.cas == pytest.approx(two_way.cas, rel=1e-6)

    def test_three_way_beats_single_on_ttm(self, model, cost_model):
        shares = balance_allocation(
            raven_multicore, ["28nm", "40nm", "65nm"], model, N_CHIPS
        )
        result = evaluate_allocation(
            raven_multicore, shares, model, cost_model, N_CHIPS
        )
        single = split_ttm_weeks(
            single_process_plan(raven_multicore, "28nm"), model, N_CHIPS
        )
        assert result.ttm_weeks < single

    def test_five_way_beats_single_on_ttm(self, model, cost_model):
        shares = balance_allocation(
            raven_multicore,
            ["180nm", "65nm", "40nm", "28nm", "14nm"],
            model,
            N_CHIPS,
        )
        result = evaluate_allocation(
            raven_multicore, shares, model, cost_model, N_CHIPS
        )
        assert result.ttm_weeks < model.total_weeks(
            raven_multicore("28nm"), N_CHIPS
        )

    def test_validation(self, model, cost_model):
        with pytest.raises(InvalidParameterError):
            evaluate_allocation(
                raven_multicore, {}, model, cost_model, N_CHIPS
            )
        with pytest.raises(InvalidParameterError):
            evaluate_allocation(
                raven_multicore,
                {"28nm": 0.7, "40nm": 0.7},
                model,
                cost_model,
                N_CHIPS,
            )
        with pytest.raises(InvalidParameterError):
            evaluate_allocation(
                raven_multicore,
                {"28nm": 1.5, "40nm": -0.5},
                model,
                cost_model,
                N_CHIPS,
            )


class TestGreedySelection:
    def test_starts_from_fastest_single(self, model, cost_model):
        steps = greedy_node_selection(
            raven_multicore,
            ["180nm", "28nm", "40nm"],
            model,
            cost_model,
            N_CHIPS,
            max_nodes=1,
        )
        assert len(steps) == 1
        assert steps[0].nodes == ("28nm",)

    def test_each_step_improves_ttm(self, model, cost_model):
        steps = greedy_node_selection(
            raven_multicore,
            ["180nm", "65nm", "40nm", "28nm"],
            model,
            cost_model,
            N_CHIPS,
            max_nodes=3,
        )
        ttms = [step.ttm_weeks for step in steps]
        assert ttms == sorted(ttms, reverse=True)
        assert len(ttms) >= 2

    def test_min_gain_threshold_stops_growth(self, model, cost_model):
        steps = greedy_node_selection(
            raven_multicore,
            ["180nm", "65nm", "40nm", "28nm"],
            model,
            cost_model,
            N_CHIPS,
            max_nodes=4,
            min_ttm_gain_weeks=50.0,  # nothing gains 50 weeks
        )
        assert len(steps) == 1

    def test_validation(self, model, cost_model):
        with pytest.raises(InvalidParameterError):
            greedy_node_selection(
                raven_multicore, [], model, cost_model, N_CHIPS
            )
        with pytest.raises(InvalidParameterError):
            greedy_node_selection(
                raven_multicore,
                ["28nm"],
                model,
                cost_model,
                N_CHIPS,
                max_nodes=0,
            )
