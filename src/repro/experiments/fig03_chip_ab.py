"""Fig. 3 — TTM and CAS of two synthetic chips vs production capacity.

Chip A (large die, mid node) needs many wafers per unit of production
rate: its TTM climbs steeply as capacity drops. Chip B (small advanced
die) starts with a *higher* TTM at full capacity but barely moves — the
more agile design. The figure's lesson is that agility and baseline TTM
are different axes; this experiment regenerates both curve families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from ..analysis.sweep import capacity_curves, capacity_fractions
from ..analysis.tables import format_table
from ..design.library.generic import demo_chip_a, demo_chip_b
from ..ttm.model import TTMModel

#: Final chips produced by both designs (identical, per the figure).
DEFAULT_N_CHIPS = 5e6


@dataclass(frozen=True)
class Fig03Result:
    """Per-chip TTM and CAS series over the capacity sweep."""

    n_chips: float
    fractions: Tuple[float, ...]
    ttm: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)
    cas: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ttm", dict(self.ttm))
        object.__setattr__(self, "cas", dict(self.cas))

    def table(self) -> str:
        """The figure's series as a printable table."""
        headers = ["capacity %"]
        for name in self.ttm:
            headers += [f"{name} TTM", f"{name} CAS"]
        rows = []
        for i, fraction in enumerate(self.fractions):
            row = [round(fraction * 100)]
            for name in self.ttm:
                row += [self.ttm[name][i], self.cas[name][i]]
            rows.append(row)
        return format_table(headers, rows)


def run(
    model: Optional[TTMModel] = None,
    n_chips: float = DEFAULT_N_CHIPS,
    fractions: Optional[Sequence[float]] = None,
) -> Fig03Result:
    """Regenerate Fig. 3's two TTM curves and two CAS curves.

    Both designs' curve families come from one fused (designs x
    fractions) pass over a shared compiled portfolio.
    """
    ttm_model = model or TTMModel.nominal()
    sweep = tuple(fractions) if fractions else capacity_fractions(0.2, 1.0, 17)
    designs = {"Chip A": demo_chip_a(), "Chip B": demo_chip_b()}
    ttm_matrix, cas_matrix = capacity_curves(
        ttm_model, tuple(designs.values()), n_chips, sweep
    )
    return Fig03Result(
        n_chips=n_chips,
        fractions=sweep,
        ttm={name: tuple(ttm_matrix[i]) for i, name in enumerate(designs)},
        cas={name: tuple(cas_matrix[i]) for i, name in enumerate(designs)},
    )
