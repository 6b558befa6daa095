"""Tests for the k-way production-allocation extension."""

from itertools import combinations

import pytest

from repro.design.library.a11 import a11
from repro.design.library.raven import raven_multicore
from repro.errors import InvalidParameterError
from repro.multiprocess.allocation import (
    balance_allocation,
    evaluate_allocation,
    greedy_node_selection,
)
from repro.multiprocess.split import ProductionSplit

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
        grid_ttm = min(
            evaluate_allocation(
                raven_multicore,
                ProductionSplit(raven_multicore, "28nm", "40nm", s / 50)
                .allocations,
                model,
                cost_model,
                N_CHIPS,
                with_cas=False,
            ).ttm_weeks
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

    def test_two_node_balance_is_59_41(self, model):
        """EXPERIMENTS.md: the minimax balance over {28 nm, 40 nm}
        lands at 59/41, beside Fig. 14's 60/40 grid optimum."""
        shares = balance_allocation(
            raven_multicore, ["28nm", "40nm"], model, N_CHIPS
        )
        assert round(shares["28nm"], 2) == 0.59
        assert round(shares["40nm"], 2) == 0.41

    def test_validation(self, model):
        with pytest.raises(InvalidParameterError):
            balance_allocation(raven_multicore, [], model, N_CHIPS)
        with pytest.raises(InvalidParameterError):
            balance_allocation(
                raven_multicore, ["28nm", "28nm"], model, N_CHIPS
            )


class TestEvaluateAllocation:
    def test_three_way_beats_single_on_ttm(self, model, cost_model):
        shares = balance_allocation(
            raven_multicore, ["28nm", "40nm", "65nm"], model, N_CHIPS
        )
        result = evaluate_allocation(
            raven_multicore, shares, model, cost_model, N_CHIPS
        )
        assert result.ttm_weeks < model.total_weeks(
            raven_multicore("28nm"), N_CHIPS
        )

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

    @pytest.mark.parametrize("max_nodes", [2, 3])
    @pytest.mark.parametrize("n_chips", [1e6, 1e9])
    @pytest.mark.parametrize("factory", [raven_multicore, a11])
    def test_last_step_is_the_exhaustive_optimum(
        self, model, cost_model, factory, n_chips, max_nodes
    ):
        """The greedy search reaches the lowest balanced TTM over every
        subset of at most ``max_nodes`` of the production nodes."""
        technology = model.foundry.technology
        nodes = [node.name for node in technology.production_nodes()]

        def balanced_ttm(subset):
            shares = balance_allocation(factory, subset, model, n_chips)
            return max(
                model.total_weeks(factory(node), n_chips * share)
                for node, share in shares.items()
            )

        best = min(
            balanced_ttm(subset)
            for size in range(1, max_nodes + 1)
            for subset in combinations(nodes, size)
        )
        steps = greedy_node_selection(
            factory, nodes, model, cost_model, n_chips, max_nodes=max_nodes
        )
        assert len(nodes) == 10
        assert steps[-1].ttm_weeks == pytest.approx(best, rel=1e-12, abs=0.0)

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
