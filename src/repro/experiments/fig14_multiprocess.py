"""Fig. 14 — two-process manufacturing matrices (Sec. 7).

For a Raven-inspired multicore at one billion final chips, sweep every
(primary, secondary) node pair and, per pair, the production split that
maximizes CAS. Report TTM (panel a), chip creation cost (panel b) and the
CAS-optimal split (panel c), plus the Sec. 7 headline comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..analysis.tables import format_table
from ..cost.model import CostModel
from ..design.library.raven import raven_multicore
from ..multiprocess.optimizer import (
    PairResult,
    SplitStudy,
    headline_comparison,
    run_split_study,
)
from ..ttm.model import TTMModel

DEFAULT_N_CHIPS = 1e9

#: Split granularity: every 2% (the paper's Fig. 14c values are even).
DEFAULT_SPLIT_GRID: Tuple[float, ...] = tuple(
    s / 100.0 for s in range(2, 101, 2)
)


@dataclass(frozen=True)
class Fig14Result:
    """The three matrices plus headline numbers."""

    n_chips: float
    processes: Tuple[str, ...]
    study: SplitStudy
    headline: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "headline", dict(self.headline))

    def pair(self, primary: str, secondary: str) -> PairResult:
        """One matrix cell (primary must be the later-roadmap node)."""
        return self.study.pairs[(primary, secondary)]

    def matrix(self, metric: str) -> Dict[Tuple[str, str], float]:
        """One panel: metric in {"ttm", "cost", "split"}."""
        extract = {
            "ttm": lambda result: result.best.ttm_weeks,
            "cost": lambda result: result.best.cost_usd,
            "split": lambda result: result.best.split,
        }[metric]
        return {key: extract(result) for key, result in self.study.pairs.items()}

    def table(self) -> str:
        """Fastest / cheapest / most agile combinations + headlines."""
        rows = []
        for label, result in (
            ("fastest", self.study.fastest()),
            ("cheapest", self.study.cheapest()),
            ("most agile", self.study.most_agile()),
        ):
            rows.append(
                [
                    label,
                    result.primary,
                    result.secondary,
                    result.best.split,
                    result.best.ttm_weeks,
                    result.best.cost_usd / 1e9,
                    result.best.cas_normalized,
                ]
            )
        table = format_table(
            [
                "pick",
                "primary",
                "secondary",
                "split",
                "TTM wk",
                "cost $B",
                "CAS",
            ],
            rows,
        )
        lines = [table, ""]
        for key, value in self.headline.items():
            lines.append(f"{key}: {value * 100:+.1f}%")
        return "\n".join(lines)


def run(
    model: Optional[TTMModel] = None,
    cost_model: Optional[CostModel] = None,
    n_chips: float = DEFAULT_N_CHIPS,
    processes: Optional[Sequence[str]] = None,
    split_grid: Sequence[float] = DEFAULT_SPLIT_GRID,
    refine: bool = False,
) -> Fig14Result:
    """Regenerate Fig. 14's matrices and the Sec. 7 headline numbers.

    The whole study is one vectorized (pair x split) tensor.
    ``refine=True`` is
    :func:`~repro.multiprocess.optimizer.run_split_study`'s refinement:
    it solves each pair's coarse bracket for the breakpoints of its
    piecewise-affine objective (off by default so the figure reproduces
    the paper's 2% panel values exactly).
    """
    ttm_model = model or TTMModel.nominal()
    costs = cost_model or CostModel.nominal()
    if processes is None:
        processes = [
            node.name
            for node in ttm_model.foundry.technology.production_nodes()
        ]
    study = run_split_study(
        raven_multicore,
        processes,
        ttm_model,
        costs,
        n_chips,
        split_grid=split_grid,
        refine=refine,
    )
    return Fig14Result(
        n_chips=n_chips,
        processes=tuple(processes),
        study=study,
        headline=headline_comparison(study),
    )
