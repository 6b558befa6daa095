"""The scalar Sec. 7 oracle: one ``evaluate_split`` per production plan.

The vectorized split engine (``repro.engine.batch_split``) and the
Fig. 14 study built on it (``repro.multiprocess.optimizer``) are checked
against these two loops.
"""

from repro.multiprocess.split import (
    evaluate_split,
    make_plan,
    single_process_plan,
)


def scalar_evaluation(
    design_factory, primary, secondary, split, model, cost_model, n_chips
):
    """One plan through the scalar model. The diagonal and any split
    >= 1.0 are the primary node's single-process plan."""
    if primary == secondary or split >= 1.0:
        plan = single_process_plan(design_factory, primary)
    else:
        plan = make_plan(design_factory, primary, secondary, split)
    return evaluate_split(plan, model, cost_model, n_chips)


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
