"""Monte Carlo studies of fixed production splits (Sec. 7 robustness).

The paper's "agility insurance" claim is about *uncertainty*: a
two-process split hedges a single line's exposure to capacity loss,
queue growth, and yield drift. This module pushes a fixed
:class:`~repro.multiprocess.split.ProductionSplit` through the
vectorized :func:`~repro.engine.batch_split.batch_split_samples` kernel
under joint supply draws — one batched evaluation per production line
per chunk, no scalar ``evaluate_split`` call anywhere on the sampling
path — and reduces the outcome to the same
:class:`~repro.montecarlo.results.StudyResult` summaries the
single-design studies produce.

Chunking and seeding mirror :mod:`repro.montecarlo.study`: chunk layout
is a pure function of ``n_samples`` and each chunk's generator is
spawned from the study seed by index, so results are bit-for-bit
identical across the serial, thread, and process executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cost.model import CostModel
from ..engine.batch_split import batch_split_samples
from ..engine.parallel import parallel_map
from ..errors import InvalidParameterError
from ..multiprocess.split import ProductionSplit
from ..ttm.model import TTMModel
from .disruption import DisruptionModel
from .results import DEFAULT_TAIL_LEVEL, StudyResult, summarize_cells
from .spec import SamplingSpec
from .study import DEFAULT_CHUNK_SAMPLES, METRIC_TAILS, chunk_sizes


@dataclass(frozen=True)
class _PlanChunkTask:
    """Picklable per-chunk work item (shipped to process workers)."""

    model: TTMModel
    cost_model: Optional[CostModel]
    plan: ProductionSplit
    spec: SamplingSpec
    disruptions: Optional[DisruptionModel]
    n_samples: int


def _evaluate_plan_chunk(
    task: _PlanChunkTask, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    """Draw and batch-evaluate one chunk (module-level for pickling)."""
    draws = task.spec.sample(task.n_samples, rng)
    quantities = draws.n_chips
    kwargs = draws.kernel_kwargs()
    if task.disruptions is not None:
        disruption = task.disruptions.sample(task.n_samples, rng)
        if disruption.capacity:
            kwargs["capacity"] = dict(disruption.capacity)
        if disruption.demand_scale is not None:
            quantities = quantities * disruption.demand_scale
    outcome = batch_split_samples(
        task.plan,
        task.model,
        quantities,
        cost_model=task.cost_model,
        **kwargs,  # type: ignore[arg-type]
    )
    metrics = {
        "ttm_weeks": np.asarray(outcome.ttm_weeks, dtype=float).ravel(),
        "cas": np.asarray(outcome.cas, dtype=float).ravel(),
    }
    if outcome.cost_usd is not None:
        metrics["cost_per_chip_usd"] = np.asarray(
            outcome.usd_per_chip, dtype=float
        ).ravel()
    return metrics


def _plan_processes(plan: ProductionSplit) -> tuple:
    """Every node the plan's production lines fabricate on."""
    involved: List[str] = []
    for node in plan.allocations:
        for process in plan.design_factory(node).processes:
            if process not in involved:
                involved.append(process)
    return tuple(involved)


def run_plan_study(
    model: TTMModel,
    plan: ProductionSplit,
    spec: SamplingSpec,
    n_samples: int,
    seed: int,
    cost_model: Optional[CostModel] = None,
    disruptions: Optional[DisruptionModel] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> StudyResult:
    """Run one Monte Carlo study over a fixed production split.

    The split's allocation is held constant while the supply chain
    varies: demand, per-node capacity, queue quotes, defect density and
    wafer rates are drawn jointly from ``spec`` (optionally composed
    with a :class:`DisruptionModel`), and every draw's TTM / CAS /
    cost-per-chip comes from one batched kernel call per production
    line. The result's ``design`` names the plan as
    ``"<design> [primary|secondary@split]"`` so plan comparisons stay
    distinguishable.
    """
    if disruptions is not None and any(
        p.target == "capacity" for p in spec.parameters
    ):
        raise InvalidParameterError(
            "capacity is sampled by both the spec and the disruption model; "
            "pick one"
        )
    sizes = chunk_sizes(n_samples, chunk_samples)
    tasks = [
        _PlanChunkTask(
            model=model,
            cost_model=cost_model,
            plan=plan,
            spec=spec,
            disruptions=disruptions,
            n_samples=size,
        )
        for size in sizes
    ]
    chunks: List[Dict[str, np.ndarray]] = parallel_map(
        _evaluate_plan_chunk,
        tasks,
        executor=executor,
        max_workers=max_workers,
        seed=seed,
    )
    blocks: Dict[str, np.ndarray] = {
        name: np.concatenate([chunk[name] for chunk in chunks])[None, :]
        for name in chunks[0]
    }
    [(summaries, curves)] = summarize_cells(
        blocks, METRIC_TAILS, tail_level=tail_level, curve_points=curve_points
    )
    return StudyResult(
        design=plan_label(plan),
        processes=_plan_processes(plan),
        n_samples=n_samples,
        seed=seed,
        summaries=summaries,
        curves=curves,
    )


def plan_label(plan: ProductionSplit) -> str:
    """Readable study label: design name plus the allocation."""
    design = plan.design_factory(plan.primary)
    if plan.is_single_process:
        return f"{design.name} [{plan.primary}]"
    return (
        f"{design.name} [{plan.primary}|{plan.secondary}@{plan.split:.2f}]"
    )


def compare_plans(
    model: TTMModel,
    plans: Sequence[ProductionSplit],
    spec: SamplingSpec,
    n_samples: int,
    seed: int,
    **kwargs: object,
) -> Dict[str, StudyResult]:
    """Run the same study over several production plans (shared seed).

    Every plan sees the *same* supply-chain draws (common random
    numbers), so differences between result distributions measure the
    hedge itself — e.g. a 60/40 two-node split against its single-node
    baselines under the 2021-shortage scenario.
    """
    results: Dict[str, StudyResult] = {}
    for plan in plans:
        label = plan_label(plan)
        if label in results:
            raise InvalidParameterError(
                f"duplicate plan {label!r} in comparison"
            )
        results[label] = run_plan_study(
            model, plan, spec, n_samples, seed, **kwargs  # type: ignore[arg-type]
        )
    return results


__all__ = [
    "compare_plans",
    "plan_label",
    "run_plan_study",
]
