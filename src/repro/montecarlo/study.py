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
of ``n_samples``), evaluated in order, and each chunk's
``numpy.random.Generator`` is spawned from the study seed by chunk index
via the seeded :func:`~repro.engine.parallel.parallel_map`. A chunk's
draws therefore depend only on the seed and its index.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..economics.market_window import MarketWindow, triangle_loss_fractions
from ..engine.parallel import parallel_map
from ..engine.scenario import Evaluation, evaluate
from ..errors import InvalidParameterError
from ..obs.trace import span
from ..ttm.model import TTMModel
from .disruption import DisruptionModel
from .results import DEFAULT_TAIL_LEVEL, StudyResult, summarize_cells
from .spec import SamplingSpec

#: Samples drawn and evaluated per chunk.
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


def _chunk_draws(
    spec: SamplingSpec,
    disruptions: Optional[DisruptionModel],
    n_samples: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, Dict[str, object]]:
    """One chunk's demand and ``evaluate`` supply keywords.

    The disruption model draws after the spec, from the same stream: its
    capacity replaces the spec's and its demand scale multiplies the
    spec's demand.
    """
    draws = spec.sample(n_samples, rng)
    quantities = draws.n_chips
    kwargs = draws.kernel_kwargs()
    if disruptions is not None:
        disruption = disruptions.sample(n_samples, rng)
        if disruption.capacity:
            kwargs["capacity"] = dict(disruption.capacity)
        if disruption.demand_scale is not None:
            quantities = quantities * disruption.demand_scale
    return quantities, kwargs


def _evaluated_metrics(cost_model: Optional[CostModel]) -> Tuple[str, ...]:
    """The ``evaluate`` metrics a study asks for."""
    return ("ttm", "cas") if cost_model is None else ("ttm", "cas", "cost")


def _metric_cubes(evaluation: Evaluation) -> Dict[str, np.ndarray]:
    """A study's metrics from one evaluation, ``(scenarios, designs, samples)``.

    Per-chip cost under scenario ``k`` divides by that scenario's
    transformed demand.
    """
    metrics = {
        "ttm_weeks": evaluation.ttm.total_weeks,
        "cas": evaluation.cas.cas,
    }
    if evaluation.cost is not None:
        metrics["cost_per_chip_usd"] = evaluation.cost.usd_per_chip
    return metrics


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
    seed / chunk_samples:
        Sampling is chunked and seeded per chunk index, so a fixed seed
        reproduces the result bit for bit.
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
        chunk_samples=chunk_samples,
        tail_level=tail_level,
        curve_points=curve_points,
    )[design.name]


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

    def evaluate_chunk(
        size: int, rng: np.random.Generator
    ) -> Dict[str, np.ndarray]:
        quantities, kwargs = _chunk_draws(spec, disruptions, size, rng)
        evaluation = evaluate(
            model,
            design_tuple,
            quantities,
            _evaluated_metrics(cost_model),
            cost_model=cost_model,
            **kwargs,
        )
        return {
            name: cube[0] for name, cube in _metric_cubes(evaluation).items()
        }

    with span(
        "mc.compare_designs",
        designs=[design.name for design in design_tuple],
        n_samples=n_samples,
        seed=seed,
    ):
        chunks: List[Dict[str, np.ndarray]] = parallel_map(
            evaluate_chunk, chunk_sizes(n_samples, chunk_samples), seed=seed
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
