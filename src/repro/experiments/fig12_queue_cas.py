"""Fig. 12 — queue time erodes agility (CAS view, Sec. 6.3).

Same setup as Fig. 11, but plotting CAS. Because the quoted backlog adds
``N_ahead / mu_W`` to TTM, it adds ``N_ahead / mu_W^2`` to the Eq. 8
sensitivity, so even one quoted week slashes the maximum CAS — the paper
reports a 37% drop for 1 week of queue at 7 nm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from ..analysis.sweep import capacity_fractions
from ..analysis.tables import format_table
from ..design.library.a11 import a11
from ..engine.scenario import evaluate
from ..ttm.model import TTMModel
from .fig07_a11_ttm_cost import DEFAULT_N_CHIPS
from .fig11_queue_ttm import (
    DEFAULT_PROCESS,
    DEFAULT_QUEUES,
    queue_grid,
    queue_model,
)


@dataclass(frozen=True)
class Fig12Result:
    """CAS series per quoted queue time."""

    process: str
    n_chips: float
    fractions: Tuple[float, ...]
    series: Mapping[float, Tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", dict(self.series))

    def max_cas(self) -> Mapping[float, float]:
        """{queue weeks: max CAS over the sweep}."""
        return {queue: max(values) for queue, values in self.series.items()}

    def one_week_drop(self) -> float:
        """Fractional max-CAS loss from a 1-week quote (paper: ~37%)."""
        peaks = self.max_cas()
        return 1.0 - peaks[1.0] / peaks[0.0]

    def table(self) -> str:
        """The curves as rows per capacity point."""
        headers = ["capacity %"] + [f"queue {q:g} wk" for q in self.series]
        rows = []
        for i, fraction in enumerate(self.fractions):
            rows.append(
                [round(fraction * 100)]
                + [self.series[queue][i] for queue in self.series]
            )
        return format_table(headers, rows)


def run(
    model: Optional[TTMModel] = None,
    process: str = DEFAULT_PROCESS,
    n_chips: float = DEFAULT_N_CHIPS,
    queues: Sequence[float] = DEFAULT_QUEUES,
    fractions: Optional[Sequence[float]] = None,
) -> Fig12Result:
    """Regenerate Fig. 12's CAS-vs-capacity curves per queue time.

    One CAS evaluation covers the (queue x capacity) grid.
    """
    base = model or TTMModel.nominal()
    sweep = tuple(fractions) if fractions else capacity_fractions(0.25, 1.0, 16)
    shape, grid = queue_grid(queues, sweep)
    cas = evaluate(
        queue_model(base), (a11(process),), n_chips, ("cas",), **grid
    ).cas.normalized[0, 0].reshape(shape)
    series = {queue: tuple(row) for queue, row in zip(queues, cas)}
    return Fig12Result(
        process=process, n_chips=n_chips, fractions=sweep, series=series
    )
