"""Monte Carlo study runner: sample, evaluate, summarize.

A study draws ``n_samples`` joint supply-chain realizations from a
:class:`~repro.montecarlo.spec.SamplingSpec` (optionally composed with a
:class:`~repro.montecarlo.disruption.DisruptionModel`), pushes the whole
sample through one :func:`~repro.engine.scenario.evaluate` call per
chunk (TTM, CAS and, with a cost model, cost) — every design of a
comparison on the same draws — and reduces the outcome arrays to
:class:`~repro.montecarlo.results.StudyResult` summaries. A single-design
study is a 1-design comparison. No scalar ``TTMModel`` call happens
anywhere on the sampling path.

Determinism: the sample is split into fixed-size chunks (a pure function
of ``n_samples``), and each chunk's ``numpy.random.Generator`` is spawned
from the study seed by chunk index via the seeded
:func:`~repro.engine.parallel.parallel_map`. Results are therefore
bit-for-bit identical across the serial, thread, and process executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..economics.market_window import MarketWindow, triangle_loss_fractions
from ..engine.parallel import parallel_map
from ..engine.scenario import evaluate
from ..errors import InvalidParameterError
from ..obs.trace import span
from ..ttm.model import TTMModel
from .disruption import DisruptionModel
from .results import DEFAULT_TAIL_LEVEL, StudyResult, summarize_cells
from .spec import SamplingSpec

#: Samples evaluated per parallel work item.
DEFAULT_CHUNK_SAMPLES = 2048

#: Tail direction per metric: risk is slow/expensive, or *in*agile.
METRIC_TAILS: Mapping[str, str] = {
    "ttm_weeks": "upper",
    "cas": "lower",
    "cost_per_chip_usd": "upper",
    "revenue_loss_fraction": "upper",
}


def chunk_sizes(n_samples: int, chunk_samples: int) -> Tuple[int, ...]:
    """Deterministic chunk layout: full chunks plus one remainder."""
    if n_samples <= 0:
        raise InvalidParameterError(
            f"sample count must be positive, got {n_samples}"
        )
    if chunk_samples <= 0:
        raise InvalidParameterError(
            f"chunk size must be positive, got {chunk_samples}"
        )
    full, rest = divmod(n_samples, chunk_samples)
    return tuple([chunk_samples] * full + ([rest] if rest else []))


def _check_capacity_source(
    spec: SamplingSpec, disruptions: Optional[DisruptionModel]
) -> None:
    if disruptions is not None and any(
        p.target == "capacity" for p in spec.parameters
    ):
        raise InvalidParameterError(
            "capacity is sampled by both the spec and the disruption model; "
            "pick one"
        )


def _summarize_designs(
    designs: Sequence[ChipDesign],
    n_samples: int,
    seed: int,
    blocks: Dict[str, np.ndarray],
    window: Optional[MarketWindow],
    reference_weeks: Optional[float],
    tail_level: float,
    curve_points: int,
) -> Dict[str, StudyResult]:
    """Reduce per-design metric blocks to one :class:`StudyResult` each.

    ``blocks`` maps each metric to a (designs x samples) block; row ``i``
    is design ``i``'s sample.
    """
    if window is not None:
        ttm = blocks["ttm_weeks"]
        reference = (
            np.array([[np.median(row)] for row in ttm])
            if reference_weeks is None
            else float(reference_weeks)
        )
        blocks["revenue_loss_fraction"] = triangle_loss_fractions(
            ttm - reference, window.window_weeks
        )
    cells = summarize_cells(
        blocks, METRIC_TAILS, tail_level=tail_level, curve_points=curve_points
    )
    return {
        design.name: StudyResult(
            design=design.name,
            processes=design.processes,
            n_samples=n_samples,
            seed=seed,
            summaries=summaries,
            curves=curves,
        )
        for design, (summaries, curves) in zip(designs, cells)
    }


def run_study(
    model: TTMModel,
    design: ChipDesign,
    spec: SamplingSpec,
    n_samples: int,
    seed: int,
    cost_model: Optional[CostModel] = None,
    disruptions: Optional[DisruptionModel] = None,
    window: Optional[MarketWindow] = None,
    reference_weeks: Optional[float] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> StudyResult:
    """Run one Monte Carlo study over a design.

    Parameters
    ----------
    model / cost_model:
        The scalar models supplying calibration; evaluation itself goes
        through the portfolio kernels (a 1-design
        :func:`compare_designs`). Cost metrics are produced only when
        ``cost_model`` is given.
    spec:
        The joint sampling specification.
    disruptions:
        Optional stochastic event layer. Its capacity draw replaces the
        spec's capacity column — sample capacity in one place or the
        other, not both.
    window / reference_weeks:
        When a :class:`MarketWindow` is given, the TTM sample is also
        reported as a revenue-loss-fraction distribution for delays
        beyond ``reference_weeks`` (default: the sample median, i.e.
        "late relative to the typical outcome").
    seed / executor / max_workers / chunk_samples:
        Sampling is chunked and seeded per chunk index; results are
        identical across executors for a fixed seed.
    """
    return compare_designs(
        model,
        (design,),
        spec,
        n_samples,
        seed,
        cost_model=cost_model,
        disruptions=disruptions,
        window=window,
        reference_weeks=reference_weeks,
        executor=executor,
        max_workers=max_workers,
        chunk_samples=chunk_samples,
        tail_level=tail_level,
        curve_points=curve_points,
    )[design.name]


@dataclass(frozen=True)
class _PortfolioChunkTask:
    """Picklable per-chunk work item covering the whole design tuple."""

    model: TTMModel
    cost_model: Optional[CostModel]
    designs: Tuple[ChipDesign, ...]
    spec: SamplingSpec
    disruptions: Optional[DisruptionModel]
    n_samples: int


def _evaluate_portfolio_chunk(
    task: _PortfolioChunkTask, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    """Draw once and evaluate every design on the shared chunk."""
    draws = task.spec.sample(task.n_samples, rng)
    quantities = draws.n_chips
    kwargs = draws.kernel_kwargs()
    if task.disruptions is not None:
        disruption = task.disruptions.sample(task.n_samples, rng)
        if disruption.capacity:
            kwargs["capacity"] = dict(disruption.capacity)
        if disruption.demand_scale is not None:
            quantities = quantities * disruption.demand_scale
    evaluation = evaluate(
        task.model,
        task.designs,
        quantities,
        ("ttm", "cas") if task.cost_model is None else ("ttm", "cas", "cost"),
        cost_model=task.cost_model,
        **kwargs,
    )
    metrics = {
        "ttm_weeks": evaluation.ttm.total_weeks[0],
        "cas": evaluation.cas.cas[0],
    }
    if evaluation.cost is not None:
        metrics["cost_per_chip_usd"] = evaluation.cost.usd_per_chip[0]
    return metrics


def compare_designs(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    spec: SamplingSpec,
    n_samples: int,
    seed: int,
    cost_model: Optional[CostModel] = None,
    disruptions: Optional[DisruptionModel] = None,
    window: Optional[MarketWindow] = None,
    reference_weeks: Optional[float] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> Dict[str, StudyResult]:
    """Run the same study over several designs (shared seed).

    Every design sees the *same* supply-chain draws (common random
    numbers), so differences between result distributions are due to
    the designs, not sampling noise. Each chunk is drawn once and the
    whole design tuple evaluated through one
    :func:`~repro.engine.scenario.evaluate` call; row ``i``
    depends on design ``i`` alone, so a design's result is bit for bit
    its :func:`run_study`.
    """
    design_tuple = tuple(designs)
    seen: Dict[str, None] = {}
    for design in design_tuple:
        if design.name in seen:
            raise InvalidParameterError(
                f"duplicate design name {design.name!r} in comparison"
            )
        seen[design.name] = None
    _check_capacity_source(spec, disruptions)
    with span(
        "mc.compare_designs",
        designs=[design.name for design in design_tuple],
        n_samples=n_samples,
        seed=seed,
        executor=executor,
    ):
        sizes = chunk_sizes(n_samples, chunk_samples)
        tasks = [
            _PortfolioChunkTask(
                model=model,
                cost_model=cost_model,
                designs=design_tuple,
                spec=spec,
                disruptions=disruptions,
                n_samples=size,
            )
            for size in sizes
        ]
        chunks: List[Dict[str, np.ndarray]] = parallel_map(
            _evaluate_portfolio_chunk,
            tasks,
            executor=executor,
            max_workers=max_workers,
            seed=seed,
        )
        blocks: Dict[str, np.ndarray] = {
            name: np.concatenate([chunk[name] for chunk in chunks], axis=1)
            for name in chunks[0]
        }
        return _summarize_designs(
            design_tuple,
            n_samples,
            seed,
            blocks,
            window,
            reference_weeks,
            tail_level,
            curve_points,
        )


__all__ = [
    "DEFAULT_CHUNK_SAMPLES",
    "METRIC_TAILS",
    "chunk_sizes",
    "compare_designs",
    "run_study",
]
