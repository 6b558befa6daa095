"""Fig. 6 — IPC/TTM-optimal (I$, D$) per node and production volume.

For each (process node, number of final chips) cell, find the cache pair
maximizing IPC per week of time-to-market. The paper's trends:

* shrinking nodes make cache area cheap -> optimal capacities grow;
* larger volumes make wafer throughput the bottleneck -> optimal
  capacities shrink;
* data caches are generally preferred, except at legacy nodes under
  mass production.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sweep import chip_quantities
from ..analysis.tables import format_table
from ..design.library.ariane import CACHE_SWEEP_KB, ariane_manycore
from ..engine.scenario import evaluate
from ..perf.ipc import IPCModel
from ..ttm.model import TTMModel
from .fig04_cache_scatter import DEFAULT_CAPACITY_SHARE

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
DEFAULT_CORES = 16


@dataclass(frozen=True)
class CellOptimum:
    """Best cache pair for one (node, quantity) cell."""

    process: str
    n_chips: float
    icache_kb: int
    dcache_kb: int
    ipc: float
    ttm_weeks: float
    cache_area_fraction: float


@dataclass(frozen=True)
class Fig06Result:
    """The optimization matrix, keyed by (process, n_chips)."""

    processes: Tuple[str, ...]
    quantities: Tuple[float, ...]
    cells: Mapping[Tuple[str, float], CellOptimum] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", dict(self.cells))

    def cell(self, process: str, n_chips: float) -> CellOptimum:
        """One matrix cell."""
        return self.cells[(process, n_chips)]

    def table(self) -> str:
        """The matrix as "I$/D$" cells (KB), quantities as rows."""
        headers = ["chips"] + list(self.processes)
        rows = []
        for quantity in self.quantities:
            row = [f"{quantity:g}"]
            for process in self.processes:
                best = self.cells[(process, quantity)]
                row.append(f"{best.icache_kb}/{best.dcache_kb}")
            rows.append(row)
        return format_table(headers, rows)


def run(
    model: Optional[TTMModel] = None,
    ipc_model: Optional[IPCModel] = None,
    processes: Sequence[str] = DEFAULT_PROCESSES,
    quantities: Optional[Sequence[float]] = None,
    cores: int = DEFAULT_CORES,
    sizes_kb: Optional[Sequence[int]] = None,
    capacity_share: float = DEFAULT_CAPACITY_SHARE,
) -> Fig06Result:
    """Regenerate Fig. 6's optimal-configuration matrix."""
    ttm_model = (model or TTMModel.nominal()).at_capacity(capacity_share)
    perf = ipc_model or IPCModel()
    volume_grid = tuple(quantities) if quantities else chip_quantities()
    sweep = tuple(sizes_kb) if sizes_kb else CACHE_SWEEP_KB
    pairs = [(icache_kb, dcache_kb) for icache_kb in sweep for dcache_kb in sweep]
    ipc = np.array([perf.ipc(*pair) for pair in pairs])
    # Every node's grid is a block of rows of one table; rows are
    # independent, so each block equals that node's own call bit for bit.
    designs_by_process = [
        [
            ariane_manycore(process, cores=cores, icache_kb=i, dcache_kb=d)
            for i, d in pairs
        ]
        for process in processes
    ]
    ttm_by_process = evaluate(
        ttm_model,
        [design for designs in designs_by_process for design in designs],
        volume_grid,
        ("ttm",),
    ).ttm.total_weeks[0].reshape(len(processes), len(pairs), len(volume_grid))
    cells = {}
    for process, designs, ttm in zip(
        processes, designs_by_process, ttm_by_process
    ):
        # A hypothetical cache-less design isolates the swept caches'
        # area (the color bar); it depends only on the node.
        node = ttm_model.foundry.technology[process]
        minimal = ariane_manycore(
            process, cores=cores, icache_kb=0, dcache_kb=0
        )
        base = minimal.dies[0].area_on(node)
        # argmax takes the first maximum: ties go to the earlier pair.
        winners = np.argmax(ipc[:, None] / ttm, axis=0)
        for column, (n_chips, best) in enumerate(zip(volume_grid, winners)):
            icache_kb, dcache_kb = pairs[best]
            total = designs[best].dies[0].area_on(node)
            cells[(process, n_chips)] = CellOptimum(
                process=process,
                n_chips=n_chips,
                icache_kb=icache_kb,
                dcache_kb=dcache_kb,
                ipc=float(ipc[best]),
                ttm_weeks=float(ttm[best, column]),
                cache_area_fraction=(total - base) / total,
            )
    return Fig06Result(
        processes=tuple(processes), quantities=volume_grid, cells=cells
    )
