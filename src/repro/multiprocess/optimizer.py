"""CAS-optimal production-split search (the Fig. 14 sweep).

For every (primary, secondary) node pair, sweep the production split and
keep the split with the highest CAS; report that split's TTM and cost.
The paper's Fig. 14 runs this for a Raven-inspired multicore at one
billion final chips and highlights the overall fastest combination.

One vectorized :func:`repro.engine.batch_split.batch_split` call
evaluates the whole (pair x split-grid) tensor from one compiled line
table; ``refine=True`` adds a second stage that solves each pair's
coarse bracket for its exact optimum
(:func:`~repro.engine.batch_split.refine_split_exact`). The scalar
oracle is :func:`~repro.multiprocess.allocation.evaluate_allocation`,
one plan at a time; every cell and every per-pair optimum matches it to
<= 1e-9 relative error (pinned by ``tests/engine/test_batch_split.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from ..cost.model import CostModel
from ..errors import InvalidParameterError
from ..ttm.model import TTMModel
from .split import DEFAULT_SPLIT_GRID, DesignFactory, SplitEvaluation


@dataclass(frozen=True)
class PairResult:
    """The CAS-optimal split for one (primary, secondary) pair."""

    primary: str
    secondary: str
    best: SplitEvaluation

    @property
    def is_single_process(self) -> bool:
        """True when the optimum puts everything on one node."""
        return self.best.split >= 1.0 or self.primary == self.secondary


@dataclass(frozen=True)
class SplitStudy:
    """Full Fig. 14 sweep output."""

    n_chips: float
    pairs: Mapping[Tuple[str, str], PairResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", dict(self.pairs))

    def _require_results(self, what: str) -> None:
        if not self.pairs:
            raise InvalidParameterError(
                f"cannot pick the {what} combination of an empty study; "
                "run_split_study produced no pair results"
            )

    def fastest(self) -> PairResult:
        """The combination with the lowest time-to-market."""
        self._require_results("fastest")
        return min(self.pairs.values(), key=lambda pair: pair.best.ttm_weeks)

    def cheapest(self) -> PairResult:
        """The combination with the lowest chip-creation cost."""
        self._require_results("cheapest")
        return min(self.pairs.values(), key=lambda pair: pair.best.cost_usd)

    def most_agile(self) -> PairResult:
        """The combination with the highest CAS."""
        self._require_results("most agile")
        return max(self.pairs.values(), key=lambda pair: pair.best.cas)

    def single_process_results(self) -> Dict[str, PairResult]:
        """The diagonal: one-node manufacturing baselines."""
        return {
            primary: result
            for (primary, secondary), result in self.pairs.items()
            if primary == secondary
        }


def _ranking_key(evaluation: SplitEvaluation) -> Tuple[float, float]:
    """Max CAS, ties broken toward lower TTM (the Fig. 14 objective)."""
    return (evaluation.cas, -evaluation.ttm_weeks)


def _batched_best(
    design_factory: DesignFactory,
    pairs: Sequence[Tuple[str, str]],
    model: TTMModel,
    cost_model: CostModel,
    n_chips: float,
    split_grid: Sequence[float],
    refine: bool,
    with_cas: bool = True,
) -> List[SplitEvaluation]:
    """Per-pair optima from the vectorized tensor (+ optional refinement).

    The one split-search pipeline: :func:`best_split_for_pair`,
    :func:`run_split_study` and the server's /splits endpoint all answer
    through it. Without CAS every cell scores 0, the optimum is the
    fastest split, and there is no bracket to refine.
    """
    # Imported lazily: ``repro.engine.batch_split`` itself imports from
    # ``repro.multiprocess``, so a module-level import here would close
    # an import cycle during package initialization.
    from ..engine.batch_split import batch_split, refine_split_exact

    if not isinstance(refine, bool):
        raise InvalidParameterError(
            f"refine must be True or False, got {refine!r}"
        )
    coarse = batch_split(
        design_factory,
        pairs,
        model,
        cost_model,
        n_chips,
        split_grid=split_grid,
        with_cas=with_cas,
    )
    best = list(coarse.best_evaluations())
    if not (refine and with_cas):
        return best
    fine = batch_split(
        design_factory,
        pairs,
        model,
        cost_model,
        n_chips,
        split_grid=refine_split_exact(
            coarse, design_factory, model, cost_model
        ),
    )
    # The fine grid brackets the coarse optimum but need not contain it,
    # so refinement keeps whichever stage actually scored higher.
    return [
        max(coarse_ev, fine_ev, key=_ranking_key)
        for coarse_ev, fine_ev in zip(best, fine.best_evaluations())
    ]


def best_split_for_pair(
    design_factory: DesignFactory,
    primary: str,
    secondary: str,
    model: TTMModel,
    cost_model: CostModel,
    n_chips: float,
    split_grid: Sequence[float] = DEFAULT_SPLIT_GRID,
    refine: bool = False,
) -> PairResult:
    """Sweep the split grid for one pair, keeping the max-CAS split.

    Ties on CAS break toward lower TTM. The diagonal (primary ==
    secondary) evaluates only the single-process plan. ``refine=True``
    adds a second vectorized stage that solves the coarse optimum's
    bracket for its piecewise-affine breakpoints.
    """
    if len(split_grid) == 0:
        raise InvalidParameterError("split grid must be non-empty")
    best = _batched_best(
        design_factory,
        [(primary, secondary)],
        model,
        cost_model,
        n_chips,
        split_grid,
        refine,
    )[0]
    return PairResult(primary=primary, secondary=secondary, best=best)


def run_split_study(
    design_factory: DesignFactory,
    processes: Sequence[str],
    model: TTMModel,
    cost_model: CostModel,
    n_chips: float,
    split_grid: Sequence[float] = DEFAULT_SPLIT_GRID,
    include_singles: bool = True,
    refine: bool = False,
) -> SplitStudy:
    """Evaluate every unordered node pair (plus singles on the diagonal).

    ``processes`` should contain only nodes currently in production; the
    primary is always the more advanced (later-roadmap) node of the pair,
    matching the paper's axes. The whole study is one (pair x split)
    tensor. ``refine=True`` adds a second vectorized stage that solves
    each pair's bracket for its piecewise-affine breakpoints — the
    bracket's true optimum, not a grid approximation.
    """
    if len(processes) < 1:
        raise InvalidParameterError("need at least one process node")
    if len(set(processes)) != len(processes):
        raise InvalidParameterError(f"duplicate nodes in {processes}")
    if len(split_grid) == 0:
        raise InvalidParameterError("split grid must be non-empty")
    ordered = list(processes)
    keys: List[Tuple[str, str]] = []
    for i, secondary in enumerate(ordered):
        start = i if include_singles else i + 1
        for primary in ordered[start:]:
            keys.append((primary, secondary))
    pairs: Dict[Tuple[str, str], PairResult] = {}
    if keys:
        best = _batched_best(
            design_factory,
            keys,
            model,
            cost_model,
            n_chips,
            split_grid,
            refine,
        )
        for (primary, secondary), evaluation in zip(keys, best):
            pairs[(primary, secondary)] = PairResult(
                primary=primary, secondary=secondary, best=evaluation
            )
    return SplitStudy(n_chips=n_chips, pairs=pairs)


def headline_comparison(study: SplitStudy) -> Dict[str, float]:
    """The Sec. 7 headline numbers.

    * ``agility_gain`` — fastest multi-process split's CAS over the
      fastest single process's CAS, minus 1 (paper: +47%).
    * ``ttm_gain_vs_cheapest`` — how much faster the fastest multi-process
      split is than the cheapest process, as a fraction (paper: 8%).
    * ``cost_increase`` — its cost over the cheapest process's cost,
      minus 1 (paper: +1.6%).
    """
    singles = study.single_process_results()
    if not singles:
        raise InvalidParameterError("study has no single-process baselines")
    multi = {
        key: result
        for key, result in study.pairs.items()
        if not result.is_single_process
    }
    if not multi:
        raise InvalidParameterError("study found no true multi-process optima")
    fastest_multi = min(multi.values(), key=lambda r: r.best.ttm_weeks)
    fastest_single = min(singles.values(), key=lambda r: r.best.ttm_weeks)
    cheapest_single = min(singles.values(), key=lambda r: r.best.cost_usd)
    return {
        "agility_gain": fastest_multi.best.cas / fastest_single.best.cas - 1.0,
        "ttm_gain_vs_cheapest": 1.0
        - fastest_multi.best.ttm_weeks / cheapest_single.best.ttm_weeks,
        "cost_increase": fastest_multi.best.cost_usd
        / cheapest_single.best.cost_usd
        - 1.0,
    }
