"""Fig. 13 — chiplet & mixed-process study: TTM, cost, CAS (Sec. 6.5).

Eight Zen-2-class variants (mixed-process, single-process chiplets with
and without interposer, monolithic equivalents) evaluated over a range of
final-chip volumes (TTM/cost) and over the capacity sweep (CAS). The
paper's findings this experiment checks:

* mixed-process Zen 2 is faster to market than the all-7nm design (the
  dies proceed in parallel and the I/O die's tapeout is cheap at 12 nm),
  but costs more (two tapeouts, two mask sets);
* chiplets beat equivalent monolithic designs on TTM, cost and CAS;
* interposer variants are strictly worse (an extra large legacy die must
  arrive before packaging);
* the mixed design is the most agile at full capacity but carries extra
  vulnerability: disrupting *either* of its nodes hurts it, which
  :func:`node_disruption` quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..agility.cas import chip_agility_score
from ..analysis.sweep import capacity_fractions
from ..analysis.tables import format_table
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..design.library.zen2 import fig13_variants
from ..engine.scenario import evaluate
from ..market.conditions import MarketConditions
from ..ttm.model import TTMModel

DEFAULT_QUANTITIES: Tuple[float, ...] = (10e6, 25e6, 50e6, 75e6, 100e6)
DEFAULT_CAS_N_CHIPS = 50e6


@dataclass(frozen=True)
class Fig13Result:
    """TTM/cost series per variant plus CAS curves."""

    quantities: Tuple[float, ...]
    fractions: Tuple[float, ...]
    ttm: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)
    cost: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)
    cas: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ttm", dict(self.ttm))
        object.__setattr__(self, "cost", dict(self.cost))
        object.__setattr__(self, "cas", dict(self.cas))

    @property
    def variants(self) -> Tuple[str, ...]:
        """Variant names in legend order."""
        return tuple(self.ttm)

    def cas_at_full_capacity(self) -> Dict[str, float]:
        """{variant: CAS} at max production rate."""
        return {name: values[-1] for name, values in self.cas.items()}

    def table(self) -> str:
        """Per-variant TTM / cost / CAS at the largest volume."""
        rows = []
        full_cas = self.cas_at_full_capacity()
        for name in self.variants:
            rows.append(
                [
                    name,
                    self.ttm[name][-1],
                    self.cost[name][-1] / 1e9,
                    full_cas[name],
                ]
            )
        return format_table(
            [
                "variant",
                f"TTM wk @{self.quantities[-1]:g}",
                "cost $B",
                "CAS @100%",
            ],
            rows,
        )


def run(
    model: Optional[TTMModel] = None,
    cost_model: Optional[CostModel] = None,
    quantities: Sequence[float] = DEFAULT_QUANTITIES,
    cas_n_chips: float = DEFAULT_CAS_N_CHIPS,
    fractions: Optional[Sequence[float]] = None,
    designs: Optional[Sequence[ChipDesign]] = None,
) -> Fig13Result:
    """Regenerate Fig. 13's three panels.

    All eight variants share one compiled portfolio: one evaluation
    gives the TTM and cost panels over the quantity grid, and one the
    CAS panel over the capacity sweep.
    """
    ttm_model = model or TTMModel.nominal()
    costs = cost_model or CostModel.nominal()
    sweep = tuple(fractions) if fractions else capacity_fractions(0.15, 1.0, 18)
    variants = tuple(designs) if designs else fig13_variants()
    volume_grid = tuple(quantities)

    panels = evaluate(
        ttm_model, variants, volume_grid, ("ttm", "cost"), cost_model=costs
    )
    ttm_matrix = panels.ttm.total_weeks[0]
    cost_matrix = panels.cost.total_usd[0]
    cas_matrix = evaluate(
        ttm_model, variants, cas_n_chips, ("cas",), capacity=sweep
    ).cas.normalized[0]
    return Fig13Result(
        quantities=volume_grid,
        fractions=sweep,
        ttm={
            design.name: tuple(float(w) for w in ttm_matrix[i])
            for i, design in enumerate(variants)
        },
        cost={
            design.name: tuple(float(c) for c in cost_matrix[i])
            for i, design in enumerate(variants)
        },
        cas={
            design.name: tuple(cas_matrix[i])
            for i, design in enumerate(variants)
        },
    )


def node_disruption(
    design: ChipDesign,
    model: Optional[TTMModel] = None,
    n_chips: float = DEFAULT_CAS_N_CHIPS,
    capacity: float = 0.5,
) -> Dict[str, float]:
    """TTM after halving each node the design uses, one at a time.

    Quantifies the mixed-process vulnerability the paper describes: a
    single-node design only fears its own node; a mixed design can be
    stalled by a disruption on *any* of its nodes.
    """
    base = model or TTMModel.nominal()
    outcomes: Dict[str, float] = {
        "nominal": base.total_weeks(design, n_chips)
    }
    for process in design.processes:
        conditions = MarketConditions.nominal().with_capacity(process, capacity)
        disrupted = base.with_foundry(base.foundry.with_conditions(conditions))
        outcomes[process] = disrupted.total_weeks(design, n_chips)
    return outcomes


def agility_gains(result: Fig13Result) -> Dict[str, float]:
    """Mixed-design CAS gain over the single-process variants.

    The paper's abstract quotes 24%-51% over equivalent single-process
    chiplet and monolithic designs.
    """
    full = result.cas_at_full_capacity()
    mixed = full["Zen 2"]
    return {
        name: mixed / value - 1.0
        for name, value in full.items()
        if name != "Zen 2"
    }


def full_capacity_cas(
    design: ChipDesign,
    model: Optional[TTMModel] = None,
    n_chips: float = DEFAULT_CAS_N_CHIPS,
) -> float:
    """CAS of one variant at nominal conditions (helper for tests)."""
    base = model or TTMModel.nominal()
    return chip_agility_score(base, design, n_chips).normalized
