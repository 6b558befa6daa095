"""Fig. 14 reproduction checks (multi-process manufacturing)."""

import pytest

from repro.design.library.raven import raven_multicore
from repro.experiments import fig14_multiprocess
from tests.split_oracle import scalar_best

# A reduced grid keeps the study fast while covering the node spectrum.
PROCESSES = ("180nm", "65nm", "40nm", "28nm", "14nm", "7nm")
GRID = tuple(s / 20 for s in range(1, 21))


@pytest.fixture(scope="module")
def result(model, cost_model):
    return fig14_multiprocess.run(
        model, cost_model, processes=PROCESSES, split_grid=GRID
    )


class TestFig14:
    def test_matrix_covers_all_pairs(self, result):
        n = len(PROCESSES)
        assert len(result.study.pairs) == n * (n + 1) // 2

    def test_fastest_combo_is_28_40(self, result):
        """Sec. 7: 28 nm + 40 nm (the two highest-capacity nodes) wins."""
        fastest = result.study.fastest()
        assert {fastest.primary, fastest.secondary} == {"28nm", "40nm"}

    def test_fastest_multi_beats_fastest_single(self, result):
        singles = result.study.single_process_results()
        best_single = min(r.best.ttm_weeks for r in singles.values())
        assert result.study.fastest().best.ttm_weeks < best_single

    def test_headline_signs(self, result):
        """Sec. 7 headline: more agile, faster than the cheapest process,
        for a small cost increase (paper: +47% / 8% / +1.6%)."""
        headline = result.headline
        assert headline["agility_gain"] > 0.2
        assert headline["ttm_gain_vs_cheapest"] > 0.0
        assert 0.0 < headline["cost_increase"] < 0.25

    def test_matrices_extracted(self, result):
        ttm = result.matrix("ttm")
        cost = result.matrix("cost")
        split = result.matrix("split")
        assert set(ttm) == set(cost) == set(split)
        assert all(0.0 < s <= 1.0 for s in split.values())

    def test_single_process_diagonal_order(self, result):
        """Single-process TTM ordering matches the Fig. 14a diagonal:
        28 nm fastest, 180 nm slowest of this subset."""
        singles = {
            p: r.best.ttm_weeks
            for p, r in result.study.single_process_results().items()
        }
        assert min(singles, key=singles.get) == "28nm"
        assert singles["180nm"] == max(singles.values())

    def test_pair_lookup(self, result):
        pair = result.pair("28nm", "40nm")
        assert pair.primary == "28nm"

    def test_table_renders(self, result):
        text = result.table()
        assert "fastest" in text and "agility_gain" in text


class TestEngineOptions:
    # Scoped down to three nodes: the scalar oracle evaluates every
    # plan of the grid one at a time.
    PROCESSES = ("65nm", "40nm", "28nm")
    GRID = tuple(s / 10 for s in range(1, 11))

    def test_scalar_engine_matches_batched_default(self, model, cost_model):
        batched = fig14_multiprocess.run(
            model, cost_model, processes=self.PROCESSES, split_grid=self.GRID
        )
        assert len(batched.study.pairs) == 6
        for (primary, secondary), result in batched.study.pairs.items():
            oracle = scalar_best(
                raven_multicore, primary, secondary, self.GRID, model,
                cost_model, batched.n_chips,
            )
            assert result.best.split == oracle.split
            assert result.best.ttm_weeks == pytest.approx(
                oracle.ttm_weeks, rel=1e-9
            )
            assert result.best.cas == pytest.approx(oracle.cas, rel=1e-9)

    def test_refine_never_loses_agility(self, model, cost_model):
        coarse = fig14_multiprocess.run(
            model, cost_model, processes=self.PROCESSES, split_grid=self.GRID
        )
        refined = fig14_multiprocess.run(
            model,
            cost_model,
            processes=self.PROCESSES,
            split_grid=self.GRID,
            refine=True,
        )
        for key, result in refined.study.pairs.items():
            assert result.best.cas >= coarse.study.pairs[key].best.cas
