"""Fig. 7 — A11 re-release: TTM phases and cost per node (Sec. 6.2).

For 10 M final chips, each node gets a stacked TTM breakdown (tapeout /
fabrication / packaging) and a chip-creation cost, plus the +-10% / +-25%
input-variance confidence intervals drawn as error bars in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from ..analysis.tables import format_table
from ..cost.model import CostModel
from ..design.library.a11 import A11_TOTAL_TRANSISTORS, A11_UNIQUE_TRANSISTORS, a11
from ..engine.sobol_adapter import ttm_factor_batch_function
from ..sensitivity.ttm_factors import ttm_factors
from ..sensitivity.uncertainty import UncertaintyResult, uncertainty_bands
from ..ttm.model import TTMModel

DEFAULT_PROCESSES: Tuple[str, ...] = (
    "250nm",
    "180nm",
    "130nm",
    "90nm",
    "65nm",
    "40nm",
    "28nm",
    "14nm",
    "7nm",
    "5nm",
)
DEFAULT_N_CHIPS = 10e6


@dataclass(frozen=True)
class NodeReport:
    """One bar of the figure."""

    process: str
    tapeout_weeks: float
    fabrication_weeks: float
    packaging_weeks: float
    total_weeks: float
    cost_usd: float
    bands: Mapping[float, UncertaintyResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bands", dict(self.bands))


@dataclass(frozen=True)
class Fig07Result:
    """All node bars, in roadmap order."""

    n_chips: float
    nodes: Tuple[NodeReport, ...]

    @property
    def fastest(self) -> NodeReport:
        """The minimum-TTM node (28 nm in the paper)."""
        return min(self.nodes, key=lambda node: node.total_weeks)

    def node(self, process: str) -> NodeReport:
        """Look up one node's bar."""
        for report in self.nodes:
            if report.process == process:
                return report
        raise KeyError(f"no report for node {process!r}")

    def table(self) -> str:
        """The figure as rows."""
        rows = []
        for report in self.nodes:
            ci10 = report.bands.get(0.10)
            rows.append(
                [
                    report.process,
                    report.tapeout_weeks,
                    report.fabrication_weeks,
                    report.packaging_weeks,
                    report.total_weeks,
                    report.cost_usd / 1e9,
                    f"[{ci10.lower:.1f}, {ci10.upper:.1f}]" if ci10 else "-",
                ]
            )
        return format_table(
            [
                "node",
                "tapeout wk",
                "fab wk",
                "package wk",
                "TOTAL wk",
                "cost $B",
                "95% CI (+-10%)",
            ],
            rows,
        )


def run(
    model: Optional[TTMModel] = None,
    cost_model: Optional[CostModel] = None,
    processes: Sequence[str] = DEFAULT_PROCESSES,
    n_chips: float = DEFAULT_N_CHIPS,
    with_bands: bool = True,
    band_samples: int = 256,
) -> Fig07Result:
    """Regenerate Fig. 7's per-node TTM breakdowns and costs.

    ``band_samples`` is the Monte Carlo draws per band (the paper averages
    1024). The default 256 is what the golden snapshot pins; its CI
    bounds lie within 3 % of those from 1024 draws.
    """
    ttm_model = model or TTMModel.nominal()
    costs = cost_model or CostModel.nominal()
    technology = ttm_model.foundry.technology
    reports = []
    for process in processes:
        design = a11(process)
        result = ttm_model.time_to_market(design, n_chips)
        bands: Mapping[float, UncertaintyResult] = {}
        if with_bands:
            factors = ttm_factors(
                process, A11_TOTAL_TRANSISTORS, A11_UNIQUE_TRANSISTORS, technology
            )
            bands = uncertainty_bands(
                ttm_factor_batch_function(process, n_chips, technology),
                factors,
                samples=band_samples,
                vectorized=True,
            )
        reports.append(
            NodeReport(
                process=process,
                tapeout_weeks=result.tapeout_weeks,
                fabrication_weeks=result.fabrication_weeks,
                packaging_weeks=result.packaging_weeks,
                total_weeks=result.total_weeks,
                cost_usd=costs.total_usd(design, n_chips),
                bands=bands,
            )
        )
    return Fig07Result(n_chips=n_chips, nodes=tuple(reports))


def headline_band(result: Fig07Result) -> Tuple[float, float]:
    """(7 nm, 5 nm) TTM increase over the fastest node, as fractions.

    The paper's abstract quotes 73%-116% for re-releasing on an advanced
    node instead of the best legacy node.
    """
    best = result.fastest.total_weeks
    return (
        result.node("7nm").total_weeks / best - 1.0,
        result.node("5nm").total_weeks / best - 1.0,
    )
