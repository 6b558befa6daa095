"""Extension: joint node/core/cache co-design under a cost cap.

The case studies sweep one axis at a time (caches in Sec. 6.1, nodes in
Sec. 6.2). Real chip planning picks a *point* in the joint space. This
experiment searches (process node) x (core count) x (L1 capacities) for
the configuration maximizing throughput per week of time-to-market —
cores x IPC / TTM — subject to a chip-creation budget, exercising the
entire model stack through one optimizer call.

Passing ``split_processes`` appends a Sec. 7 production stage: the
winning architecture is ported across those nodes and the vectorized
split engine picks the CAS-optimal two-process manufacturing plan for
it (``result.production``), answering "how should we actually build the
chip we just chose?" in one extra batched call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.search import Configuration, SearchSpace, grid_search
from ..analysis.tables import format_table
from ..cost.model import CostModel
from ..design.library.ariane import ariane_manycore
from ..engine.scenario import evaluate
from ..multiprocess.optimizer import PairResult, run_split_study
from ..perf.ipc import IPCModel
from ..ttm.model import TTMModel

DEFAULT_N_CHIPS = 50e6
DEFAULT_BUDGET_USD = 0.38e9
DEFAULT_PROCESSES: Tuple[str, ...] = ("65nm", "40nm", "28nm", "14nm", "7nm")
DEFAULT_CORES: Tuple[int, ...] = (4, 8, 16, 32)
DEFAULT_CACHES_KB: Tuple[int, ...] = (8, 16, 32, 64, 128)

#: Customer share of each node's line (same rationale as Fig. 4).
DEFAULT_CAPACITY_SHARE = 0.05


@dataclass(frozen=True)
class CodesignPoint:
    """Full evaluation of one configuration."""

    process: str
    cores: int
    icache_kb: int
    dcache_kb: int
    ipc: float
    throughput: float
    ttm_weeks: float
    cost_usd: float

    @property
    def throughput_per_week(self) -> float:
        """The search objective: cores * IPC / TTM."""
        return self.throughput / self.ttm_weeks


@dataclass(frozen=True)
class CodesignResult:
    """Search outcome plus context."""

    n_chips: float
    budget_usd: float
    best: CodesignPoint
    evaluated: int
    feasible: int
    production: Optional[PairResult] = None

    def table(self) -> str:
        """The winning configuration as a one-row table."""
        best = self.best
        text = format_table(
            [
                "node",
                "cores",
                "I$/D$ KB",
                "IPC",
                "TTM wk",
                "cost $B",
                "thpt/wk",
            ],
            [
                [
                    best.process,
                    best.cores,
                    f"{best.icache_kb}/{best.dcache_kb}",
                    best.ipc,
                    best.ttm_weeks,
                    best.cost_usd / 1e9,
                    best.throughput_per_week,
                ]
            ],
        ) + (
            f"\n\nfeasible {self.feasible}/{self.evaluated} points under "
            f"${self.budget_usd / 1e9:.2f}B"
        )
        if self.production is not None:
            plan = self.production
            text += (
                f"\nproduction: {plan.best.split:.0%} on {plan.primary}"
                + (
                    ""
                    if plan.is_single_process
                    else f", {1.0 - plan.best.split:.0%} on {plan.secondary}"
                )
                + f" (CAS {plan.best.cas_normalized:.3f})"
            )
        return text


def run(
    model: Optional[TTMModel] = None,
    cost_model: Optional[CostModel] = None,
    ipc_model: Optional[IPCModel] = None,
    n_chips: float = DEFAULT_N_CHIPS,
    budget_usd: float = DEFAULT_BUDGET_USD,
    processes: Sequence[str] = DEFAULT_PROCESSES,
    cores: Sequence[int] = DEFAULT_CORES,
    caches_kb: Sequence[int] = DEFAULT_CACHES_KB,
    capacity_share: float = DEFAULT_CAPACITY_SHARE,
    split_processes: Optional[Sequence[str]] = None,
    split_grid: Optional[Sequence[float]] = None,
    refine_split: bool = False,
) -> CodesignResult:
    """Search the joint space for the best throughput-per-week design.

    Every candidate's TTM and cost is scored up front in one (candidates
    x 1) :func:`~repro.engine.scenario.evaluate` call; the grid search
    then selects over precomputed points with no scalar model call per
    configuration.

    ``split_processes`` (optional) adds the production stage: the
    winning architecture is re-ported across those nodes and the batched
    split engine returns the CAS-optimal manufacturing plan as
    ``result.production`` (``refine_split=True`` solves its coarse
    bracket for the exact optimal split).
    """
    ttm_model = (model or TTMModel.nominal()).at_capacity(capacity_share)
    costs = cost_model or CostModel.nominal()
    perf = ipc_model or IPCModel()

    space = SearchSpace(
        {
            "process": tuple(processes),
            "cores": tuple(cores),
            "icache_kb": tuple(caches_kb),
            "dcache_kb": tuple(caches_kb),
        }
    )

    def key_of(configuration: Configuration) -> Tuple[str, int, int, int]:
        return (
            str(configuration["process"]),
            int(configuration["cores"]),  # type: ignore[arg-type]
            int(configuration["icache_kb"]),  # type: ignore[arg-type]
            int(configuration["dcache_kb"]),  # type: ignore[arg-type]
        )

    unique_keys = list(dict.fromkeys(map(key_of, space.points())))
    candidates = [
        ariane_manycore(
            process, cores=n_cores, icache_kb=icache_kb, dcache_kb=dcache_kb
        )
        for process, n_cores, icache_kb, dcache_kb in unique_keys
    ]
    scores = evaluate(
        ttm_model, candidates, n_chips, ("ttm", "cost"), cost_model=costs
    )
    ttm_weeks = scores.ttm.total_weeks[0, :, 0]
    cost_usd = scores.cost.total_usd[0, :, 0]
    points: Dict[Tuple[str, int, int, int], CodesignPoint] = {}
    for row, key in enumerate(unique_keys):
        process, n_cores, icache_kb, dcache_kb = key
        ipc = perf.ipc(icache_kb, dcache_kb)
        points[key] = CodesignPoint(
            process=process,
            cores=n_cores,
            icache_kb=icache_kb,
            dcache_kb=dcache_kb,
            ipc=ipc,
            throughput=n_cores * ipc,
            ttm_weeks=float(ttm_weeks[row]),
            cost_usd=float(cost_usd[row]),
        )

    def point(configuration: Configuration) -> CodesignPoint:
        return points[key_of(configuration)]

    outcome = grid_search(
        space,
        objective=lambda cfg: point(cfg).throughput_per_week,
        constraints=[lambda cfg: point(cfg).cost_usd <= budget_usd],
    )
    best = point(outcome.best)
    production: Optional[PairResult] = None
    if split_processes is not None:
        winner_cores = best.cores
        winner_icache = best.icache_kb
        winner_dcache = best.dcache_kb

        def port_winner(process: str):
            return ariane_manycore(
                process,
                cores=winner_cores,
                icache_kb=winner_icache,
                dcache_kb=winner_dcache,
            )

        study = run_split_study(
            port_winner,
            split_processes,
            ttm_model,
            costs,
            n_chips,
            **(
                {}
                if split_grid is None
                else {"split_grid": tuple(split_grid)}
            ),
            refine=refine_split,
        )
        production = study.most_agile()
    return CodesignResult(
        n_chips=n_chips,
        budget_usd=budget_usd,
        best=best,
        evaluated=outcome.evaluated,
        feasible=outcome.feasible,
        production=production,
    )
