"""Fig. 10 — A11 TTM matrix: process node x number of final chips.

For each quantity from 1 K to 100 M, TTM on every node, with the fastest
node per quantity highlighted (the paper outlines it in blue). Trends:
small runs favor legacy nodes (no tapeout burden, short latency); volume
shifts the optimum toward denser, higher-rate nodes — but 180 nm stays
ahead of 130/90 nm at every volume thanks to its wafer rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from ..analysis.sweep import chip_quantities
from ..analysis.tables import format_table
from ..design.library.a11 import a11
from ..engine.scenario import evaluate
from ..ttm.model import TTMModel
from .fig07_a11_ttm_cost import DEFAULT_PROCESSES


@dataclass(frozen=True)
class Fig10Result:
    """TTM (weeks) keyed by (process, n_chips)."""

    processes: Tuple[str, ...]
    quantities: Tuple[float, ...]
    ttm: Mapping[Tuple[str, float], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ttm", dict(self.ttm))

    def fastest_for(self, n_chips: float) -> str:
        """The blue-outlined node for one quantity row."""
        return min(
            self.processes, key=lambda process: self.ttm[(process, n_chips)]
        )

    def row(self, n_chips: float) -> Tuple[float, ...]:
        """TTM across nodes for one quantity."""
        return tuple(self.ttm[(process, n_chips)] for process in self.processes)

    def table(self) -> str:
        """The matrix with quantities as rows."""
        headers = ["chips"] + list(self.processes) + ["fastest"]
        rows = []
        for quantity in self.quantities:
            rows.append(
                [f"{quantity:g}"]
                + list(self.row(quantity))
                + [self.fastest_for(quantity)]
            )
        return format_table(headers, rows)


def run(
    model: Optional[TTMModel] = None,
    processes: Sequence[str] = DEFAULT_PROCESSES,
    quantities: Optional[Sequence[float]] = None,
) -> Fig10Result:
    """Regenerate Fig. 10's TTM matrix.

    One TTM evaluation covers every node's whole quantity row.
    """
    ttm_model = model or TTMModel.nominal()
    volume_grid = tuple(quantities) if quantities else chip_quantities()
    totals = evaluate(
        ttm_model,
        [a11(process) for process in processes],
        volume_grid,
        ("ttm",),
    ).ttm.total_weeks[0]
    ttm = {}
    for process, row in zip(processes, totals.tolist()):
        for n_chips, weeks in zip(volume_grid, row):
            ttm[(process, n_chips)] = weeks
    return Fig10Result(
        processes=tuple(processes), quantities=volume_grid, ttm=ttm
    )
