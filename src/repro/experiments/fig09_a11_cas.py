"""Fig. 9 — A11 CAS vs production capacity on the advanced nodes.

CAS curves for 10 M A11 chips at 40/28/14/7/5 nm over the capacity sweep.
The paper's ordering at full capacity: 7 nm highest (high rate x high
density), 14 nm above 5 nm (5 nm's low wafer rate and density-amplified
rate sensitivity), 40/28 nm lowest among the five.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from ..analysis.sweep import capacity_fractions
from ..analysis.tables import format_table
from ..design.library.a11 import A11_TOTAL_TRANSISTORS, A11_UNIQUE_TRANSISTORS, a11
from ..engine.portfolio import portfolio_cas_over_capacity
from ..sensitivity.ttm_factors import cas_factor_function, ttm_factors
from ..sensitivity.uncertainty import UncertaintyResult, uncertainty_bands
from ..ttm.model import TTMModel
from .fig07_a11_ttm_cost import DEFAULT_N_CHIPS

DEFAULT_PROCESSES: Tuple[str, ...] = ("40nm", "28nm", "14nm", "7nm", "5nm")


@dataclass(frozen=True)
class Fig09Result:
    """Per-node CAS series over the capacity sweep.

    ``bands`` optionally carries the +-10% / +-25% input-variance
    confidence intervals of the full-capacity CAS per node (the shaded
    regions in the paper's figure), keyed node -> variation.
    """

    n_chips: float
    fractions: Tuple[float, ...]
    series: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)
    bands: Mapping[str, Mapping[float, UncertaintyResult]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", dict(self.series))
        object.__setattr__(self, "bands", dict(self.bands))

    def at_full_capacity(self) -> Mapping[str, float]:
        """{node: CAS} at the rightmost sweep point."""
        return {process: values[-1] for process, values in self.series.items()}

    def ranking_at_full_capacity(self) -> Tuple[str, ...]:
        """Nodes ordered by decreasing CAS at full capacity."""
        full = self.at_full_capacity()
        return tuple(sorted(full, key=lambda process: -full[process]))

    def table(self) -> str:
        """The curves as rows per capacity point."""
        headers = ["capacity %"] + list(self.series)
        rows = []
        for i, fraction in enumerate(self.fractions):
            rows.append(
                [round(fraction * 100)]
                + [self.series[process][i] for process in self.series]
            )
        return format_table(headers, rows)


def run(
    model: Optional[TTMModel] = None,
    processes: Sequence[str] = DEFAULT_PROCESSES,
    n_chips: float = DEFAULT_N_CHIPS,
    fractions: Optional[Sequence[float]] = None,
    with_bands: bool = False,
    band_samples: int = 128,
) -> Fig09Result:
    """Regenerate Fig. 9's CAS-vs-capacity curves.

    One portfolio CAS call covers every node's curve. ``with_bands``
    additionally estimates the +-10% / +-25% input-variance CIs of the
    full-capacity CAS (the figure's shaded regions); it costs
    ``2 * band_samples`` CAS evaluations per node.
    """
    ttm_model = model or TTMModel.nominal()
    technology = ttm_model.foundry.technology
    sweep = tuple(fractions) if fractions else capacity_fractions(0.1, 1.0, 19)
    curves = portfolio_cas_over_capacity(
        ttm_model, [a11(process) for process in processes], n_chips, sweep
    )
    series = {
        process: tuple(curve) for process, curve in zip(processes, curves)
    }
    bands = {}
    for process in processes:
        if with_bands:
            function = cas_factor_function(process, n_chips, technology)
            factors = ttm_factors(
                process,
                A11_TOTAL_TRANSISTORS,
                A11_UNIQUE_TRANSISTORS,
                technology,
            )
            bands[process] = uncertainty_bands(
                function, factors, samples=band_samples
            )
    return Fig09Result(
        n_chips=n_chips, fractions=sweep, series=series, bands=bands
    )
