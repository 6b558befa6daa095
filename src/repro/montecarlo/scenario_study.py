"""Scenario-axis Monte Carlo: one draw, every scenario, every design.

A scenario study draws ONE joint base sample from a
:class:`~repro.montecarlo.spec.SamplingSpec` and pushes it through the
one :func:`~repro.engine.scenario.evaluate` cube for every stress
scenario and every design. Common random numbers are enforced by
construction: the base draw happens once, up front, and every
``(scenario, design)`` cell sees the same supply-chain realizations, so
differences between cells are due to the scenario transforms and the
designs — never sampling noise.

Work is chunked over the *scenario* axis (the outermost, largest grain
of the cube): each chunk evaluates a contiguous
:meth:`~repro.engine.scenario.ScenarioSet.subset` against the shared
base draw and summarizes its own (scenario x design) cells, so no chunk
returns samples and the full cube is never held at once. This is the
one study that can fan its chunks out over threads
(``executor="thread"``): a chunk spends its time in NumPy, which
releases the GIL. Chunks are pure functions of their inputs, and a
cell's summary depends on that cell alone, so results are bit-for-bit
identical across both executors and across chunk sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.tables import format_table
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..engine.parallel import parallel_map
from ..engine.scenario import (
    Scenario,
    ScenarioSet,
    compile_scenarios,
    evaluate,
)
from ..errors import InvalidParameterError
from ..obs.trace import span
from ..ttm.model import TTMModel
from .results import (
    DEFAULT_TAIL_LEVEL,
    CellSummaries,
    StudyResult,
    conditional_value_at_risk,
    summarize_cells,
)
from .spec import SamplingSpec
from .study import (
    METRIC_TAILS,
    _evaluated_metrics,
    _metric_cubes,
    chunk_sizes,
)

#: Scenarios evaluated per chunk (outermost-axis grain).
DEFAULT_CHUNK_SCENARIOS = 8


@dataclass(frozen=True)
class ScenarioStudyResult:
    """Summaries of the full (scenarios x designs x metrics) study.

    ``results[scenario][design]`` is a per-cell
    :class:`~repro.montecarlo.results.StudyResult`; the table helpers
    reduce those cells to the per-scenario risk reports (CVaR ladders,
    exceedance-vs-baseline probabilities) the CLI prints.
    """

    scenarios: Tuple[str, ...]
    designs: Tuple[str, ...]
    n_samples: int
    seed: int
    tail_level: float
    baseline: str
    results: Mapping[str, Mapping[str, StudyResult]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(
            self,
            "results",
            {
                scenario: dict(per_design)
                for scenario, per_design in dict(self.results).items()
            },
        )

    def cell(self, scenario: str, design: str) -> StudyResult:
        """The summarized study of one (scenario, design) cell."""
        try:
            per_design = self.results[scenario]
        except KeyError:
            known = ", ".join(self.scenarios)
            raise KeyError(
                f"unknown scenario {scenario!r} (known: {known})"
            ) from None
        try:
            return per_design[design]
        except KeyError:
            known = ", ".join(self.designs)
            raise KeyError(
                f"unknown design {design!r} (known: {known})"
            ) from None

    def _check_metric(self, design: str, metric: str) -> None:
        cell = self.cell(self.baseline, design)
        if metric not in cell.summaries:
            known = ", ".join(sorted(cell.summaries))
            raise InvalidParameterError(
                f"unknown metric {metric!r} (known: {known})"
            )

    def cvar_table(self, metric: str, design: str) -> str:
        """Per-scenario risk ladder for one design and metric.

        One row per scenario: mean, median, VaR/CVaR at the study's
        tail level, the mean shift against the ``baseline`` scenario,
        and ``P(worse)`` — the probability of landing beyond the
        baseline's median (above it for upper-tail metrics, below for
        lower-tail ones). Common random numbers make these paired
        comparisons, not independent-run noise.
        """
        self._check_metric(design, metric)
        base_summary = self.cell(self.baseline, design)[metric]
        base_median = base_summary.median
        tail = base_summary.tail
        level = int(round(100.0 * self.tail_level))
        headers = [
            "scenario", "mean", "p50",
            f"VaR{level}", f"CVaR{level}",
            "mean-base", "P(worse)",
        ]
        rows: List[List[object]] = []
        for scenario in self.scenarios:
            cell = self.cell(scenario, design)
            summary = cell[metric]
            above = cell.curves[metric].probability_above(base_median)
            worse = above if tail == "upper" else 1.0 - above
            rows.append(
                [
                    scenario,
                    summary.mean,
                    summary.median,
                    summary.var,
                    summary.cvar,
                    summary.mean - base_summary.mean,
                    worse,
                ]
            )
        return format_table(headers, rows)

    def exceedance_table(
        self,
        metric: str,
        design: str,
        percentiles: Sequence[float] = (50.0, 75.0, 95.0),
    ) -> str:
        """Per-scenario exceedance probabilities at baseline thresholds.

        Thresholds are the baseline scenario's percentiles of
        ``metric``, so each column reads "chance this scenario pushes
        the metric past what the calm world considers its p50/p75/p95".
        """
        self._check_metric(design, metric)
        base_summary = self.cell(self.baseline, design)[metric]
        thresholds = [base_summary.percentiles[float(p)] for p in percentiles]
        headers = ["scenario"] + [
            f"P(>base p{p:g})" for p in percentiles
        ]
        rows: List[List[object]] = []
        for scenario in self.scenarios:
            curve = self.cell(scenario, design).curves[metric]
            rows.append(
                [scenario]
                + [curve.probability_above(t) for t in thresholds]
            )
        return format_table(headers, rows)


def run_scenario_study(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    spec: SamplingSpec,
    scenarios: Union[ScenarioSet, Sequence[Scenario]],
    n_samples: int,
    seed: int,
    cost_model: Optional[CostModel] = None,
    executor: str = "serial",
    chunk_scenarios: int = DEFAULT_CHUNK_SCENARIOS,
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> ScenarioStudyResult:
    """Run the fused scenario-cube Monte Carlo study.

    Parameters
    ----------
    spec:
        The joint base-world distribution. The draw happens ONCE and is
        shared by every scenario and design (common random numbers), so
        per-scenario deltas are paired comparisons.
    scenarios:
        A compiled :class:`~repro.engine.scenario.ScenarioSet` (e.g.
        from :func:`~repro.montecarlo.stress.stress_scenarios`) or a
        sequence of :class:`~repro.engine.scenario.Scenario`.
    executor:
        ``"serial"`` (default) evaluates the chunks in order;
        ``"thread"`` maps them over a thread pool of at most one thread
        per CPU (:func:`~repro.engine.parallel.parallel_map`).
    seed / chunk_scenarios:
        Work is chunked over the scenario axis; chunks are pure, so the
        cube is bit-for-bit identical across executors and chunk sizes
        for a fixed seed.
    """
    scenario_set = compile_scenarios(scenarios)
    design_tuple = tuple(designs)
    if any(p.node is not None for p in spec.parameters):
        raise InvalidParameterError(
            "scenario studies require a global capacity draw; per-node "
            "capacity sampling cannot compose with per-node scenario "
            "capacity transforms in a single kernel argument"
        )
    draws = spec.sample(n_samples, np.random.default_rng(seed))
    n_chips, supply = draws.n_chips, draws.kernel_kwargs()
    metrics = _evaluated_metrics(cost_model)
    n_designs = len(design_tuple)

    def summarize_chunk(subset: ScenarioSet) -> List[CellSummaries]:
        # The evaluation (and its per-group tensors) is released when
        # _metric_cubes returns, before the chunk summarizes. Each
        # scenario is evaluated and each cell summarized on its own, so
        # the chunk's cells equal the same cells of an unchunked study.
        cubes = _metric_cubes(
            evaluate(
                model,
                design_tuple,
                n_chips,
                metrics,
                scenarios=subset,
                cost_model=cost_model,
                **supply,
            )
        )
        # One row per (scenario, design) cell, scenario-major.
        n_cells = subset.n_scenarios * n_designs
        return summarize_cells(
            {name: cube.reshape(n_cells, -1) for name, cube in cubes.items()},
            METRIC_TAILS,
            tail_level=tail_level,
            curve_points=curve_points,
        )

    with span(
        "mc.run_scenario_study",
        scenarios=list(scenario_set.names),
        designs=[design.name for design in design_tuple],
        n_samples=n_samples,
        seed=seed,
        executor=executor,
    ):
        subsets = []
        start = 0
        for size in chunk_sizes(scenario_set.n_scenarios, chunk_scenarios):
            subsets.append(scenario_set.subset(range(start, start + size)))
            start += size
        chunks: List[List[CellSummaries]] = parallel_map(
            summarize_chunk, subsets, executor=executor
        )
        cells = (cell for chunk in chunks for cell in chunk)
        results: Dict[str, Dict[str, StudyResult]] = {}
        for scenario in scenario_set.names:
            per_design: Dict[str, StudyResult] = {}
            for design in design_tuple:
                summaries, curves = next(cells)
                per_design[design.name] = StudyResult(
                    design=design.name,
                    processes=design.processes,
                    n_samples=n_samples,
                    seed=seed,
                    summaries=summaries,
                    curves=curves,
                )
            results[scenario] = per_design
        baseline = (
            "baseline"
            if "baseline" in scenario_set.names
            else scenario_set.names[0]
        )
        return ScenarioStudyResult(
            scenarios=scenario_set.names,
            designs=tuple(design.name for design in design_tuple),
            n_samples=n_samples,
            seed=seed,
            tail_level=tail_level,
            baseline=baseline,
            results=results,
        )


__all__ = [
    "DEFAULT_CHUNK_SCENARIOS",
    "ScenarioStudyResult",
    "conditional_value_at_risk",
    "run_scenario_study",
]
