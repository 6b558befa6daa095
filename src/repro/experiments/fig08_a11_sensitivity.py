"""Fig. 8 — total-effect sensitivity of A11 TTM per node (Sec. 6.2).

For every node, Sobol total-effect indices of TTM with respect to the six
guarded inputs under +-10% variance. The paper's pattern:

* legacy nodes (250-90 nm): NTT dominates (area -> wafers -> production);
* mid nodes (65-7 nm): foundry/OSAT latency variance dominates;
* 5 nm: NUT rises (exponential tapeout effort).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from ..analysis.tables import format_table
from ..design.library.a11 import A11_TOTAL_TRANSISTORS, A11_UNIQUE_TRANSISTORS
from ..engine.sobol_adapter import ttm_factor_batch_function
from ..sensitivity.sobol import DEFAULT_BASE_SAMPLES, SobolResult, sobol_indices
from ..sensitivity.ttm_factors import FACTOR_NAMES, ttm_factors
from ..ttm.model import TTMModel
from .fig07_a11_ttm_cost import DEFAULT_N_CHIPS, DEFAULT_PROCESSES


@dataclass(frozen=True)
class Fig08Result:
    """Total-effect matrix, factor rows x node columns (like the figure)."""

    n_chips: float
    processes: Tuple[str, ...]
    results: Mapping[str, SobolResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", dict(self.results))

    def total_effect(self, factor: str, process: str) -> float:
        """One heatmap cell."""
        return self.results[process].total_effect[factor]

    def dominant_factor(self, process: str) -> str:
        """The factor with the largest S_T on one node."""
        return self.results[process].dominant_factor

    def table(self) -> str:
        """The heatmap as a factor x node table."""
        headers = ["factor"] + list(self.processes)
        rows = []
        for factor in FACTOR_NAMES:
            rows.append(
                [factor]
                + [self.total_effect(factor, process) for process in self.processes]
            )
        return format_table(headers, rows)


def run(
    model: Optional[TTMModel] = None,
    processes: Sequence[str] = DEFAULT_PROCESSES,
    n_chips: float = DEFAULT_N_CHIPS,
    base_samples: int = DEFAULT_BASE_SAMPLES,
) -> Fig08Result:
    """Regenerate Fig. 8's sensitivity heatmap (N*(k+2) evals per node).

    Each Saltelli matrix is evaluated in one batched call via
    :func:`repro.engine.sobol_adapter.ttm_factor_batch_function`.
    """
    ttm_model = model or TTMModel.nominal()
    technology = ttm_model.foundry.technology
    results = {}
    for process in processes:
        factors = ttm_factors(
            process, A11_TOTAL_TRANSISTORS, A11_UNIQUE_TRANSISTORS, technology
        )
        results[process] = sobol_indices(
            ttm_factor_batch_function(process, n_chips, technology),
            factors,
            base_samples=base_samples,
            vectorized=True,
        )
    return Fig08Result(
        n_chips=n_chips, processes=tuple(processes), results=results
    )
