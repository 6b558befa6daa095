"""Multi-process chip manufacturing methodology (paper Sec. 7)."""

from .allocation import (
    AllocationResult,
    balance_allocation,
    evaluate_allocation,
    greedy_node_selection,
)
from .optimizer import (
    PairResult,
    SplitStudy,
    best_split_for_pair,
    headline_comparison,
    run_split_study,
)
from .split import (
    DEFAULT_SPLIT_GRID,
    DesignFactory,
    ProductionSplit,
    SplitEvaluation,
    single_process_plan,
)

__all__ = [
    "AllocationResult",
    "DEFAULT_SPLIT_GRID",
    "DesignFactory",
    "PairResult",
    "ProductionSplit",
    "SplitEvaluation",
    "SplitStudy",
    "balance_allocation",
    "best_split_for_pair",
    "evaluate_allocation",
    "greedy_node_selection",
    "headline_comparison",
    "run_split_study",
    "single_process_plan",
]
