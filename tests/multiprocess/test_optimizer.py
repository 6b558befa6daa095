"""Tests for the Fig. 14 split-study optimizer."""

import pytest

from repro.design.library.raven import raven_multicore
from repro.errors import InvalidParameterError
from repro.multiprocess.optimizer import (
    SplitStudy,
    best_split_for_pair,
    headline_comparison,
    run_split_study,
)
from tests.split_oracle import (
    grid_refined_best,
    scalar_best,
    scalar_evaluation,
)

NODES = ("65nm", "40nm", "28nm")
GRID = tuple(s / 10 for s in range(1, 11))


@pytest.fixture(scope="module")
def study(model, cost_model):
    return run_split_study(
        raven_multicore, NODES, model, cost_model, 1e9, split_grid=GRID
    )


class TestStudyStructure:
    def test_all_pairs_plus_diagonal(self, study):
        # 3 singles + 3 unordered pairs.
        assert len(study.pairs) == 6
        assert ("28nm", "28nm") in study.pairs
        assert ("28nm", "40nm") in study.pairs
        assert ("40nm", "28nm") not in study.pairs

    def test_diagonal_is_single_process(self, study):
        singles = study.single_process_results()
        assert set(singles) == set(NODES)
        for result in singles.values():
            assert result.is_single_process

    def test_best_split_maximizes_cas_on_grid(self, model, cost_model):
        result = best_split_for_pair(
            raven_multicore, "28nm", "40nm", model, cost_model, 1e9, GRID
        )
        for split in GRID[:-1]:
            manual = scalar_evaluation(
                raven_multicore, "28nm", "40nm", split, model, cost_model,
                1e9,
            )
            assert result.best.cas >= manual.cas - 1e-12

    def test_picks_have_expected_metrics(self, study):
        fastest = study.fastest()
        assert fastest.best.ttm_weeks == min(
            r.best.ttm_weeks for r in study.pairs.values()
        )
        cheapest = study.cheapest()
        assert cheapest.best.cost_usd == min(
            r.best.cost_usd for r in study.pairs.values()
        )
        assert study.most_agile().best.cas == max(
            r.best.cas for r in study.pairs.values()
        )


class TestPaperFindings:
    def test_fastest_combo_is_28_40(self, study):
        """Sec. 7: the 28 nm + 40 nm combination is fastest to market."""
        fastest = study.fastest()
        assert {fastest.primary, fastest.secondary} == {"28nm", "40nm"}

    def test_multi_process_beats_singles_on_ttm(self, study):
        singles_best = min(
            r.best.ttm_weeks for r in study.single_process_results().values()
        )
        assert study.fastest().best.ttm_weeks < singles_best

    def test_headline_directions(self, study):
        headline = headline_comparison(study)
        assert headline["agility_gain"] > 0.0
        assert headline["ttm_gain_vs_cheapest"] > 0.0
        assert headline["cost_increase"] > 0.0
        assert headline["cost_increase"] < headline["agility_gain"]


class TestEngines:
    """The vectorized study must replicate the scalar oracle."""

    def test_batch_and_scalar_studies_agree(self, model, cost_model):
        batch = run_split_study(
            raven_multicore, NODES, model, cost_model, 1e7, split_grid=GRID
        )
        assert set(batch.pairs) == {
            (primary, secondary)
            for i, secondary in enumerate(NODES)
            for primary in NODES[i:]
        }
        for (primary, secondary), batched in batch.pairs.items():
            oracle = scalar_best(
                raven_multicore, primary, secondary, GRID, model,
                cost_model, 1e7,
            )
            assert batched.best.split == oracle.split
            assert batched.best.secondary == oracle.secondary
            assert batched.best.ttm_weeks == pytest.approx(
                oracle.ttm_weeks, rel=1e-9
            )
            assert batched.best.cas == pytest.approx(oracle.cas, rel=1e-9)
            assert batched.best.cost_usd == pytest.approx(
                oracle.cost_usd, rel=1e-9
            )

    def test_refine_sharpens_the_split(self, model, cost_model):
        coarse = best_split_for_pair(
            raven_multicore, "28nm", "40nm", model, cost_model, 1e7, GRID
        )
        refined = best_split_for_pair(
            raven_multicore,
            "28nm",
            "40nm",
            model,
            cost_model,
            1e7,
            GRID,
            refine=True,
        )
        assert refined.best.cas >= coarse.best.cas
        # The fine stage resolves off-coarse-grid splits.
        assert refined.best.split not in GRID or (
            refined.best.cas == coarse.best.cas
        )

    def test_refined_study_keeps_structure(self, model, cost_model):
        study = run_split_study(
            raven_multicore,
            NODES,
            model,
            cost_model,
            1e7,
            split_grid=GRID,
            refine=True,
        )
        assert len(study.pairs) == 6
        for (primary, secondary), result in study.pairs.items():
            if primary == secondary:
                assert result.best.split == 1.0


class TestValidation:
    def test_empty_grid_rejected(self, model, cost_model):
        with pytest.raises(InvalidParameterError):
            best_split_for_pair(
                raven_multicore, "28nm", "40nm", model, cost_model, 1e9, ()
            )

    def test_duplicate_nodes_rejected(self, model, cost_model):
        with pytest.raises(InvalidParameterError):
            run_split_study(
                raven_multicore,
                ("28nm", "28nm"),
                model,
                cost_model,
                1e9,
                split_grid=GRID,
            )

    @pytest.mark.parametrize("pick", ("fastest", "cheapest", "most_agile"))
    def test_empty_study_picks_raise_clear_error(self, pick):
        # Regression: these used to surface as a bare ValueError from
        # min()/max() on an empty sequence.
        empty = SplitStudy(n_chips=1e9, pairs={})
        with pytest.raises(InvalidParameterError, match="empty study"):
            getattr(empty, pick)()


class TestRefineModes:
    """``refine`` is a bool: True is the exact breakpoint solve."""

    def test_true_is_an_alias_for_exact(self, model, cost_model):
        # refine=True is the coarse grid, refine_split_exact's candidates
        # and the better of the two stages, nothing else.
        from repro.engine.batch_split import batch_split, refine_split_exact

        refined = best_split_for_pair(
            raven_multicore, "28nm", "40nm", model, cost_model, 1e7,
            split_grid=GRID, refine=True,
        )
        pairs = [("28nm", "40nm")]
        coarse = batch_split(
            raven_multicore, pairs, model, cost_model, 1e7, split_grid=GRID
        )
        fine = batch_split(
            raven_multicore, pairs, model, cost_model, 1e7,
            split_grid=refine_split_exact(
                coarse, raven_multicore, model, cost_model
            ),
        )
        assert refined.best == max(
            coarse.best_evaluation(0),
            fine.best_evaluation(0),
            key=lambda ev: (ev.cas, -ev.ttm_weeks),
        )

    def test_exact_never_scores_below_grid(self, model, cost_model):
        keys = [
            (primary, secondary)
            for i, secondary in enumerate(NODES)
            for primary in NODES[i:]
        ]
        grid_refined = grid_refined_best(
            raven_multicore, keys, model, cost_model, 1e9, GRID
        )
        exact_refined = run_split_study(
            raven_multicore, NODES, model, cost_model, 1e9,
            split_grid=GRID, refine=True,
        )
        for key, grid_best in zip(keys, grid_refined):
            assert (
                exact_refined.pairs[key].best.cas >= grid_best.cas - 1e-12
            )

    def test_unknown_refine_mode_rejected(self, model, cost_model):
        # Only a bool selects the refinement: no mode names, no truthy
        # stand-ins.
        for refine in ("exact", "grid", "newton", 1, None):
            with pytest.raises(
                InvalidParameterError, match="refine must be True or False"
            ):
                run_split_study(
                    raven_multicore, NODES, model, cost_model, 1e7,
                    split_grid=GRID, refine=refine,
                )
