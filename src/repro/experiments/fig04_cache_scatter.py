"""Fig. 4 — IPC vs TTM over the (I$, D$) design space (Sec. 6.1).

Workload: a 16-core Ariane chip at 14 nm manufactured at 100 M units,
sweeping each L1 from 1 KB to 1 MB. Small caches buy IPC almost for free;
past ~512 KB combined, diminishing IPC returns meet growing die area and
TTM climbs. The 121 designs are scored by one portfolio TTM call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..analysis.tables import format_table
from ..design.library.ariane import CACHE_SWEEP_KB, ariane_manycore
from ..engine.scenario import evaluate
from ..perf.ipc import IPCModel
from ..ttm.model import TTMModel

DEFAULT_PROCESS = "14nm"
DEFAULT_N_CHIPS = 100e6
DEFAULT_CORES = 16

#: Fraction of the node's wafer line allocated to this customer's order.
#: A single fabless customer does not command the foundry's entire node
#: capacity; at a realistic allocation the wafer throughput — not just
#: latency — shapes TTM, which is what gives Fig. 4 its upward bend for
#: large caches.
DEFAULT_CAPACITY_SHARE = 0.05


@dataclass(frozen=True)
class CachePoint:
    """One (I$, D$) configuration's metrics."""

    icache_kb: int
    dcache_kb: int
    ipc: float
    ttm_weeks: float

    @property
    def ipc_per_week(self) -> float:
        """The study's headline figure of merit."""
        return self.ipc / self.ttm_weeks


@dataclass(frozen=True)
class Fig04Result:
    """The full scatter."""

    process: str
    n_chips: float
    cores: int
    points: Tuple[CachePoint, ...]

    def point(self, icache_kb: int, dcache_kb: int) -> CachePoint:
        """Look up one configuration."""
        for candidate in self.points:
            if (candidate.icache_kb, candidate.dcache_kb) == (
                icache_kb,
                dcache_kb,
            ):
                return candidate
        raise KeyError(f"no point for ({icache_kb}, {dcache_kb}) KB")

    def table(self) -> str:
        """Corner + optimum rows (the full 121-point grid is data)."""
        best = max(self.points, key=lambda p: p.ipc_per_week)
        picks = {
            (1, 1),
            (16, 32),
            (best.icache_kb, best.dcache_kb),
            (1024, 1024),
        }
        rows = [
            [p.icache_kb, p.dcache_kb, p.ipc, p.ttm_weeks, p.ipc_per_week * 1000]
            for p in self.points
            if (p.icache_kb, p.dcache_kb) in picks
        ]
        return format_table(
            ["I$ KB", "D$ KB", "IPC", "TTM wk", "IPC/TTM (x1000)"], rows
        )


def run(
    model: Optional[TTMModel] = None,
    ipc_model: Optional[IPCModel] = None,
    process: str = DEFAULT_PROCESS,
    n_chips: float = DEFAULT_N_CHIPS,
    cores: int = DEFAULT_CORES,
    sizes_kb: Optional[Sequence[int]] = None,
    capacity_share: float = DEFAULT_CAPACITY_SHARE,
) -> Fig04Result:
    """Regenerate Fig. 4's IPC/TTM scatter."""
    ttm_model = (model or TTMModel.nominal()).at_capacity(capacity_share)
    perf = ipc_model or IPCModel()
    sweep = tuple(sizes_kb) if sizes_kb else CACHE_SWEEP_KB
    pairs = [(i, d) for i in sweep for d in sweep]
    designs = [
        ariane_manycore(process, cores=cores, icache_kb=i, dcache_kb=d)
        for i, d in pairs
    ]
    ttm = evaluate(
        ttm_model, designs, n_chips, ("ttm",)
    ).ttm.total_weeks[0, :, 0]
    points = [
        CachePoint(
            icache_kb=icache_kb,
            dcache_kb=dcache_kb,
            ipc=perf.ipc(icache_kb, dcache_kb),
            ttm_weeks=weeks,
        )
        for (icache_kb, dcache_kb), weeks in zip(pairs, ttm.tolist())
    ]
    return Fig04Result(
        process=process, n_chips=n_chips, cores=cores, points=tuple(points)
    )
