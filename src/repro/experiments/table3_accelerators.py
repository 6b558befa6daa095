"""Table 3 — accelerator speed-up, size, tapeout time and cost (Sec. 6.4).

For each SPIRAL-style accelerator (streaming/iterative sorting and DFT):
speed-up over the Ariane baseline on 2048-element blocks, transistor
count, area relative to the reference Ariane core, and the 5 nm tapeout
time and cost of adding the block to an existing chip.

The paper's tapeout weeks assume a 50-engineer block team (the Table 4
calibration fixes E_tapeout at a 100-engineer scale; Table 3's published
weeks are consistent with half that team on a single block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..analysis.tables import format_table
from ..cost.nre import ENGINEER_WEEK_COST_USD, block_tapeout_cost_usd
from ..design.library.accelerators import ACCELERATOR_BLOCK_SIZE, ACCELERATORS
from ..design.library.ariane import ariane_core_transistors
from ..perf.accel.scalar import ScalarCoreModel
from ..perf.accel.speedup import evaluate_speedup
from ..technology.database import TechnologyDatabase
from ..technology.effort import engineering_weeks_to_calendar_weeks

DEFAULT_PROCESS = "5nm"

#: Block-team size matching Table 3's published tapeout weeks.
BLOCK_TEAM_ENGINEERS = 50


@dataclass(frozen=True)
class AcceleratorRow:
    """One Table 3 row."""

    key: str
    display_name: str
    speedup: float
    transistors: float
    area_relative_to_ariane: float
    tapeout_weeks: float
    tapeout_cost_usd: float


@dataclass(frozen=True)
class Table3Result:
    """All four accelerator rows."""

    process: str
    block_size: int
    rows: Tuple[AcceleratorRow, ...]

    def row(self, key: str) -> AcceleratorRow:
        """Look up one accelerator by key."""
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(f"no accelerator row {key!r}")

    def table(self) -> str:
        """The table as printed in the paper."""
        return format_table(
            [
                "block",
                "speed-up",
                "NTT (M)",
                "area vs Ariane",
                f"T_tapeout wk ({self.process})",
                f"C_tapeout $M ({self.process})",
            ],
            [
                [
                    row.display_name,
                    f"{row.speedup:.2f}x",
                    row.transistors / 1e6,
                    f"{row.area_relative_to_ariane:.2f}x",
                    row.tapeout_weeks,
                    row.tapeout_cost_usd / 1e6,
                ]
                for row in self.rows
            ],
        )


def run(
    technology: Optional[TechnologyDatabase] = None,
    process: str = DEFAULT_PROCESS,
    block_size: int = ACCELERATOR_BLOCK_SIZE,
    engineers: int = BLOCK_TEAM_ENGINEERS,
    core: ScalarCoreModel = ScalarCoreModel(),
    engineer_week_cost_usd: float = ENGINEER_WEEK_COST_USD,
) -> Table3Result:
    """Regenerate Table 3."""
    db = technology or TechnologyDatabase.default()
    node = db[process]
    ariane_reference = ariane_core_transistors()
    rows = []
    for spec in ACCELERATORS:
        performance = evaluate_speedup(spec, block_size=block_size, core=core)
        effort_weeks = spec.transistors * node.tapeout_effort
        rows.append(
            AcceleratorRow(
                key=spec.key,
                display_name=spec.display_name,
                speedup=performance.speedup,
                transistors=spec.transistors,
                area_relative_to_ariane=spec.transistors / ariane_reference,
                tapeout_weeks=engineering_weeks_to_calendar_weeks(
                    effort_weeks, engineers
                ),
                tapeout_cost_usd=block_tapeout_cost_usd(
                    spec.transistors, node, engineer_week_cost_usd
                ),
            )
        )
    return Table3Result(
        process=process, block_size=block_size, rows=tuple(rows)
    )
