"""Fig. 5 — normalized IPC/TTM vs IPC/cost over the cache design space.

The paper's point: the two figures of merit peak at *different*
configurations (IPC/TTM at a smaller, balanced pair; IPC/cost at a
larger data cache), and optimizing for IPC/TTM costs little IPC/cost
while the reverse sacrifices substantial IPC/TTM. One portfolio TTM call
and one portfolio cost call score the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..analysis.sweep import normalized
from ..analysis.tables import format_table
from ..cost.model import CostModel
from ..design.library.ariane import CACHE_SWEEP_KB, ariane_manycore
from ..engine.scenario import evaluate
from ..perf.ipc import IPCModel
from ..ttm.model import TTMModel
from .fig04_cache_scatter import (
    DEFAULT_CAPACITY_SHARE,
    DEFAULT_CORES,
    DEFAULT_N_CHIPS,
    DEFAULT_PROCESS,
)


@dataclass(frozen=True)
class TradeoffPoint:
    """One configuration with both normalized figures of merit."""

    icache_kb: int
    dcache_kb: int
    ipc: float
    ttm_weeks: float
    cost_usd: float
    ipc_per_ttm_norm: float
    ipc_per_cost_norm: float


@dataclass(frozen=True)
class Fig05Result:
    """The scatter plus the two optima the paper's arrows mark."""

    process: str
    n_chips: float
    points: Tuple[TradeoffPoint, ...]

    @property
    def best_ipc_per_ttm(self) -> TradeoffPoint:
        """The purple-arrow configuration."""
        return max(self.points, key=lambda p: p.ipc_per_ttm_norm)

    @property
    def best_ipc_per_cost(self) -> TradeoffPoint:
        """The red-arrow configuration."""
        return max(self.points, key=lambda p: p.ipc_per_cost_norm)

    def cross_penalties(self) -> Tuple[float, float]:
        """(IPC/cost loss at the TTM optimum, IPC/TTM loss at the cost
        optimum) — the paper reports 4% and 18%."""
        ttm_opt = self.best_ipc_per_ttm
        cost_opt = self.best_ipc_per_cost
        return (
            1.0 - ttm_opt.ipc_per_cost_norm,
            1.0 - cost_opt.ipc_per_ttm_norm,
        )

    def table(self) -> str:
        """Summary of both optima."""
        rows = []
        for label, p in (
            ("max IPC/TTM", self.best_ipc_per_ttm),
            ("max IPC/cost", self.best_ipc_per_cost),
        ):
            rows.append(
                [
                    label,
                    p.icache_kb,
                    p.dcache_kb,
                    p.ipc,
                    p.ttm_weeks,
                    p.cost_usd / 1e9,
                    p.ipc_per_ttm_norm,
                    p.ipc_per_cost_norm,
                ]
            )
        return format_table(
            [
                "optimum",
                "I$ KB",
                "D$ KB",
                "IPC",
                "TTM wk",
                "cost $B",
                "IPC/TTM (norm)",
                "IPC/cost (norm)",
            ],
            rows,
        )


def run(
    model: Optional[TTMModel] = None,
    cost_model: Optional[CostModel] = None,
    ipc_model: Optional[IPCModel] = None,
    process: str = DEFAULT_PROCESS,
    n_chips: float = DEFAULT_N_CHIPS,
    cores: int = DEFAULT_CORES,
    sizes_kb: Optional[Sequence[int]] = None,
    capacity_share: float = DEFAULT_CAPACITY_SHARE,
) -> Fig05Result:
    """Regenerate Fig. 5's normalized trade-off scatter.

    The cost model sees the *nominal* technology (costs are market-
    independent); only the TTM side feels the capacity allocation.
    """
    ttm_model = (model or TTMModel.nominal()).at_capacity(capacity_share)
    costs = cost_model or CostModel.nominal()
    perf = ipc_model or IPCModel()
    sweep = tuple(sizes_kb) if sizes_kb else CACHE_SWEEP_KB
    pairs = [(i, d) for i in sweep for d in sweep]
    designs = [
        ariane_manycore(process, cores=cores, icache_kb=i, dcache_kb=d)
        for i, d in pairs
    ]
    evaluation = evaluate(
        ttm_model, designs, n_chips, ("ttm", "cost"), cost_model=costs
    )
    ttm = evaluation.ttm.total_weeks[0, :, 0]
    cost = evaluation.cost.total_usd[0, :, 0]
    raw = [
        (icache_kb, dcache_kb, perf.ipc(icache_kb, dcache_kb), weeks, usd)
        for (icache_kb, dcache_kb), weeks, usd in zip(
            pairs, ttm.tolist(), cost.tolist()
        )
    ]
    per_ttm = normalized([ipc / ttm for _, _, ipc, ttm, _ in raw])
    per_cost = normalized([ipc / cost for _, _, ipc, _, cost in raw])
    points = tuple(
        TradeoffPoint(
            icache_kb=i,
            dcache_kb=d,
            ipc=ipc,
            ttm_weeks=ttm,
            cost_usd=cost,
            ipc_per_ttm_norm=per_ttm[index],
            ipc_per_cost_norm=per_cost[index],
        )
        for index, (i, d, ipc, ttm, cost) in enumerate(raw)
    )
    return Fig05Result(process=process, n_chips=n_chips, points=points)
