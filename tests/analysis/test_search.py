"""Tests for the grid-search engine and the codesign experiment."""

import pytest

from repro.analysis.search import SearchSpace, grid_search
from repro.errors import InvalidParameterError


class TestSearchSpace:
    def test_size_and_points(self):
        space = SearchSpace({"a": (1, 2, 3), "b": ("x", "y")})
        assert space.size == 6
        points = space.points()
        assert len(points) == 6
        assert {"a": 1, "b": "x"} in points

    def test_deterministic_order(self):
        space = SearchSpace({"a": (1, 2)})
        assert space.points() == space.points()

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SearchSpace({})
        with pytest.raises(InvalidParameterError):
            SearchSpace({"a": ()})


class TestGridSearch:
    SPACE = SearchSpace({"x": tuple(range(-5, 6)), "y": tuple(range(-5, 6))})

    def test_finds_global_maximum(self):
        result = grid_search(
            self.SPACE,
            objective=lambda cfg: -(cfg["x"] ** 2) - (cfg["y"] - 2) ** 2,
        )
        assert result.best == {"x": 0, "y": 2}
        assert result.best_score == 0
        assert result.feasible == result.evaluated == 121

    def test_minimize_direction(self):
        result = grid_search(
            self.SPACE,
            objective=lambda cfg: cfg["x"] ** 2 + cfg["y"] ** 2,
            maximize=False,
        )
        assert result.best == {"x": 0, "y": 0}

    def test_constraints_respected(self):
        result = grid_search(
            self.SPACE,
            objective=lambda cfg: cfg["x"] + cfg["y"],
            constraints=[lambda cfg: cfg["x"] <= 2, lambda cfg: cfg["y"] <= 1],
        )
        assert result.best == {"x": 2, "y": 1}
        assert result.feasible < result.evaluated
        assert 0.0 < result.feasible_fraction < 1.0

    def test_infeasible_space_raises_with_counts(self):
        with pytest.raises(InvalidParameterError, match="no feasible point"):
            grid_search(
                self.SPACE,
                objective=lambda cfg: 0.0,
                constraints=[lambda cfg: False],
            )

    def test_tie_resolution_is_grid_order(self):
        space = SearchSpace({"x": (1, 2, 3)})
        result = grid_search(space, objective=lambda cfg: 0.0)
        assert result.best == {"x": 1}


class TestCodesignExperiment:
    @pytest.fixture(scope="class")
    def result(self, model, cost_model):
        from repro.experiments import codesign_search

        return codesign_search.run(
            model,
            cost_model,
            processes=("65nm", "28nm", "7nm"),
            cores=(4, 16),
            caches_kb=(8, 32, 128),
        )

    def test_budget_binds_some_points(self, result):
        assert 0 < result.feasible < result.evaluated

    def test_winner_within_budget(self, result):
        assert result.best.cost_usd <= result.budget_usd

    def test_winner_beats_every_feasible_corner(self, result, model, cost_model):
        from repro.design.library.ariane import ariane_manycore
        from repro.perf.ipc import IPCModel

        perf = IPCModel()
        study_model = model.at_capacity(0.05)
        for process in ("65nm", "28nm", "7nm"):
            design = ariane_manycore(process, cores=4, icache_kb=8, dcache_kb=8)
            if cost_model.total_usd(design, result.n_chips) > result.budget_usd:
                continue
            metric = (
                4 * perf.ipc(8, 8)
                / study_model.total_weeks(design, result.n_chips)
            )
            assert result.best.throughput_per_week >= metric - 1e-12

    def test_more_cores_preferred_for_throughput(self, result):
        """Throughput/week rewards core count (IPC barely depends on it)."""
        assert result.best.cores == 16

    def test_table_renders(self, result):
        assert "thpt/wk" in result.table()
