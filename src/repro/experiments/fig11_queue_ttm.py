"""Fig. 11 — queue time amplifies capacity loss (TTM view, Sec. 6.3).

A11 at 7 nm, 10 M chips, with quoted lead times of 0/1/2/4 weeks. The
quote pins a wafer backlog at full rate; as capacity drops, both the
backlog and the design's own wafers drain slower, so queued curves
steepen — the longer the quoted queue, the steeper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sweep import capacity_fractions
from ..analysis.tables import format_table
from ..design.library.a11 import a11
from ..engine.scenario import evaluate
from ..market.conditions import MarketConditions
from ..ttm.model import TTMModel
from .fig07_a11_ttm_cost import DEFAULT_N_CHIPS

DEFAULT_PROCESS = "7nm"
DEFAULT_QUEUES: Tuple[float, ...] = (0.0, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class Fig11Result:
    """TTM series per quoted queue time."""

    process: str
    n_chips: float
    fractions: Tuple[float, ...]
    series: Mapping[float, Tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", dict(self.series))

    def at_full_capacity(self) -> Mapping[float, float]:
        """{queue weeks: TTM} at max production rate."""
        return {queue: values[-1] for queue, values in self.series.items()}

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


def queue_model(base: TTMModel) -> TTMModel:
    """The base model at nominal market conditions.

    The sweeps quote each lead time through the kernels' ``queue_weeks``
    samples, which apply to every node of the design: the A11's one.
    """
    return base.with_foundry(
        base.foundry.with_conditions(MarketConditions.nominal())
    )


def queue_grid(
    queues: Sequence[float], fractions: Sequence[float]
) -> Tuple[Tuple[int, int], Dict[str, np.ndarray]]:
    """The (queue x fraction) grid's shape, and its ``capacity`` and
    ``queue_weeks`` as flat sample vectors (queue-major)."""
    capacity, queue_weeks = np.meshgrid(
        np.asarray(fractions, dtype=float), np.asarray(queues, dtype=float)
    )
    return capacity.shape, {
        "capacity": capacity.ravel(),
        "queue_weeks": queue_weeks.ravel(),
    }


def run(
    model: Optional[TTMModel] = None,
    process: str = DEFAULT_PROCESS,
    n_chips: float = DEFAULT_N_CHIPS,
    queues: Sequence[float] = DEFAULT_QUEUES,
    fractions: Optional[Sequence[float]] = None,
) -> Fig11Result:
    """Regenerate Fig. 11's TTM-vs-capacity curves per queue time.

    One TTM evaluation covers the (queue x capacity) grid.
    """
    base = model or TTMModel.nominal()
    sweep = tuple(fractions) if fractions else capacity_fractions(0.25, 1.0, 16)
    shape, grid = queue_grid(queues, sweep)
    weeks = evaluate(
        queue_model(base), (a11(process),), n_chips, ("ttm",), **grid
    ).ttm.total_weeks[0, 0].reshape(shape)
    series = {queue: tuple(row) for queue, row in zip(queues, weeks)}
    return Fig11Result(
        process=process, n_chips=n_chips, fractions=sweep, series=series
    )
