"""Oracles of the Sec. 7 split search.

The vectorized split engine (``repro.engine.batch_split``) and the
Fig. 14 study built on it (``repro.multiprocess.optimizer``) are checked
against the scalar model, one ``evaluate_allocation`` per production
plan (``scalar_evaluation``, ``scalar_best``); the exact split
refinement is checked against an even fine grid over each coarse bracket
(``refine_split_grid``, ``grid_refined_best``).
"""

import numpy as np

from repro.engine.batch_split import _bracket, batch_split
from repro.errors import InvalidParameterError
from repro.multiprocess.allocation import evaluate_allocation
from repro.multiprocess.split import (
    DEFAULT_REFINE_POINTS,
    ProductionSplit,
    SplitEvaluation,
    single_process_plan,
)


def scalar_evaluation(
    design_factory, primary, secondary, split, model, cost_model, n_chips,
    with_cas=True,
):
    """One plan through the scalar model. The diagonal and any split
    >= 1.0 are the primary node's single-process plan."""
    if primary == secondary or split >= 1.0:
        plan = single_process_plan(design_factory, primary)
    else:
        plan = ProductionSplit(design_factory, primary, secondary, split)
    result = evaluate_allocation(
        design_factory, plan.allocations, model, cost_model, n_chips,
        with_cas=with_cas,
    )
    return SplitEvaluation(
        primary=plan.primary,
        secondary=plan.secondary,
        split=plan.split,
        n_chips=n_chips,
        ttm_weeks=result.ttm_weeks,
        cost_usd=result.cost_usd,
        cas=result.cas,
        line_weeks=result.line_weeks,
    )


def scalar_best(
    design_factory, primary, secondary, split_grid, model, cost_model, n_chips
):
    """The pair's max-CAS plan over ``split_grid``, ties broken toward
    lower TTM (first in grid order on a full tie); the diagonal
    evaluates its one plan."""
    splits = split_grid if primary != secondary else (1.0,)
    evaluations = [
        scalar_evaluation(
            design_factory, primary, secondary, split, model, cost_model,
            n_chips,
        )
        for split in splits
    ]
    return max(evaluations, key=lambda ev: (ev.cas, -ev.ttm_weeks))


def refine_split_grid(result, points=DEFAULT_REFINE_POINTS):
    """Per-pair fine grids bracketing each coarse optimum: the
    ``points``-point even carpet of each pair's bracket that the exact
    refiner (``refine_split_exact``) must never score below. Rows that
    only ever see the single-process plan (diagonal pairs) stay pinned
    at 1.0."""
    if points < 2:
        raise InvalidParameterError(
            f"refinement needs at least 2 points, got {points}"
        )
    fine = np.empty((result.n_pairs, points))
    for i in range(result.n_pairs):
        if bool(result.single_mask[i].all()):
            fine[i] = 1.0
            continue
        fine[i] = np.linspace(*_bracket(result, i), points)
    return fine


def grid_refined_best(
    design_factory, pairs, model, cost_model, n_chips, split_grid
):
    """Per-pair optima of the coarse grid refined by the even carpet:
    the exact refinement's pipeline with ``refine_split_grid`` in place
    of the breakpoint solve."""
    coarse = batch_split(
        design_factory, pairs, model, cost_model, n_chips,
        split_grid=split_grid,
    )
    fine = batch_split(
        design_factory, pairs, model, cost_model, n_chips,
        split_grid=refine_split_grid(coarse),
    )
    return [
        max(a, b, key=lambda ev: (ev.cas, -ev.ttm_weeks))
        for a, b in zip(coarse.best_evaluations(), fine.best_evaluations())
    ]
