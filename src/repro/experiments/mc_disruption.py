"""[extension] Monte Carlo disruption robustness: A11 vs Zen-2 chiplets.

The paper's chiplet study (Fig. 13) and agility argument (Sec. 6) are
evaluated at point market conditions. This experiment re-asks the
question under *uncertain* conditions: starting from the 2021-shortage
scenario, random advanced-node capacity shocks (drought/EUV style), a
rarer single-fab shutdown at 7 nm, and demand spikes are layered on, and
joint +-10% supply uncertainty (demand, queues, D0, wafer rates) is
sampled on top. Each design's TTM/CAS/cost distributions — evaluated
entirely through the batch kernels with common random numbers across
designs — show whether the chiplet decomposition's agility advantage
survives tail events, not just nominal conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from ..analysis.tables import format_table
from ..cost.model import CostModel
from ..design.library import COMPUTE_PROCESS, a11, zen2, zen2_monolithic
from ..market import scenarios
from ..montecarlo.disruption import DisruptionModel, EventEnsemble
from ..montecarlo.results import StudyResult
from ..montecarlo.spec import SampledParameter, SamplingSpec
from ..montecarlo.study import compare_designs
from ..sensitivity.distributions import DEFAULT_VARIATION, Factor
from ..ttm.model import TTMModel

#: Final chips ordered per design (Fig. 13's volume scale).
DEFAULT_N_CHIPS = 1e7

#: Samples drawn per design.
DEFAULT_N_SAMPLES = 4000

#: Study seed (fixed so the experiment is a reproducible artifact).
DEFAULT_SEED = 2023

#: A11 process node compared against the Zen-2 designs.
A11_PROCESS = "7nm"

#: Weeks after the scenario start when the orders are placed.
ORDER_WEEK = 8.0


def supply_spec(
    n_chips: float = DEFAULT_N_CHIPS, variation: float = DEFAULT_VARIATION
) -> SamplingSpec:
    """Joint demand/queue/D0/wafer-rate uncertainty (no capacity column).

    Capacity is *not* sampled here — the disruption ensembles own it.
    """
    return SamplingSpec(
        parameters=(
            SampledParameter("n_chips", Factor("n_chips", n_chips, variation)),
            SampledParameter(
                "queue_weeks", Factor("queue_weeks", 2.0, variation)
            ),
            SampledParameter("d0_scale", Factor("D0_scale", 1.0, variation)),
            SampledParameter(
                "wafer_rate_scale",
                Factor("wafer_rate_scale", 1.0, variation),
            ),
        ),
        n_chips=n_chips,
    )


def disruption_model(order_week: float = ORDER_WEEK) -> DisruptionModel:
    """Shortage base + advanced-node shocks, a 7 nm shutdown, demand spikes."""
    return DisruptionModel(
        base=scenarios.shortage_2021(),
        ensembles=(
            EventEnsemble(
                "capacity_shock",
                probability=0.35,
                start_week=Factor("start", 6.0, 0.8),
                duration_weeks=Factor("duration", 16.0, 0.5),
                severity=Factor("severity", 0.45, 0.5),
                nodes=scenarios.ADVANCED_NODES,
            ),
            EventEnsemble(
                "fab_shutdown",
                probability=0.08,
                start_week=Factor("start", 7.0, 0.6),
                duration_weeks=Factor("duration", 6.0, 0.5),
                severity=Factor("severity", 1.0, 0.0),
                nodes=("7nm",),
            ),
            EventEnsemble(
                "demand_spike",
                probability=0.25,
                start_week=Factor("start", 4.0, 0.9),
                duration_weeks=Factor("duration", 26.0, 0.5),
                severity=Factor("severity", 0.35, 0.5),
            ),
        ),
        order_week=order_week,
    )


@dataclass(frozen=True)
class MCDisruptionResult:
    """Per-design Monte Carlo summaries under the disruption ensemble."""

    n_samples: int
    seed: int
    order_week: float
    studies: Mapping[str, StudyResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "studies", dict(self.studies))

    def table(self) -> str:
        """One row per (design, metric): band + tail risk."""
        headers = [
            "design", "metric", "p5", "p50", "p95", "CVaR", "tail",
        ]
        rows = []
        for name, study in self.studies.items():
            for metric, summary in study.summaries.items():
                rows.append(
                    [
                        name,
                        metric,
                        summary.percentiles[5.0],
                        summary.percentiles[50.0],
                        summary.percentiles[95.0],
                        summary.cvar,
                        summary.tail,
                    ]
                )
        return format_table(headers, rows)


def run(
    model: Optional[TTMModel] = None,
    cost_model: Optional[CostModel] = None,
    n_chips: float = DEFAULT_N_CHIPS,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> MCDisruptionResult:
    """Compare A11@7nm, Zen-2 chiplet, and Zen-2 monolithic robustness.

    All designs see identical supply-chain draws (common random
    numbers), so distribution differences are attributable to the
    designs themselves.
    """
    disruptions = disruption_model()
    if model is None:
        nominal = TTMModel.nominal()
        model = nominal.with_foundry(
            nominal.foundry.with_conditions(disruptions.base)
        )
    designs: Tuple = (
        a11(A11_PROCESS),
        zen2(),
        zen2_monolithic(COMPUTE_PROCESS),
    )
    studies = compare_designs(
        model,
        designs,
        supply_spec(n_chips),
        n_samples,
        seed,
        cost_model=cost_model or CostModel.nominal(),
        disruptions=disruptions,
    )
    return MCDisruptionResult(
        n_samples=n_samples,
        seed=seed,
        order_week=disruptions.order_week,
        studies=studies,
    )
