"""Multi-process chip manufacturing (paper Sec. 7).

The methodology tapes out the *same architecture* on two process nodes in
parallel and splits the production volume between them. The two
production lines are alternatives, not chiplets: each line fabricates,
tests and packages complete chips, and the order is filled when the
slower line finishes. Formally:

    TTM(s) = T_design + max_p [ T_tapeout(p) + T_queue(p)
                                + N_W(s_p * n, p) / mu_W(p) + L_fab(p)
                                + T_package(s_p * n, p) ]

with ``s_primary = s`` and ``s_secondary = 1 - s``. CAS follows Eq. 8
over both nodes. Costs pay NRE (engineering + fixed + masks) on *both*
nodes — the methodology's overhead — plus per-line manufacturing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from ..agility.derivative import DEFAULT_RELATIVE_STEP, ttm_rate_sensitivity
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..errors import InvalidParameterError
from ..ttm.model import TTMModel

#: A factory mapping a process-node name to the ported design.
DesignFactory = Callable[[str], ChipDesign]

#: Default split grid of the search: 1% .. 100% of chips on the primary
#: node.
DEFAULT_SPLIT_GRID: Tuple[float, ...] = tuple(s / 100.0 for s in range(1, 101))

#: Points of the even grid the exact split refiner falls back to inside
#: a coarse bracket it cannot solve (a bending line, or a bracket that
#: reaches split 1.0): 21 points across one 1% spacing, ~0.1% resolution.
DEFAULT_REFINE_POINTS = 21


@dataclass(frozen=True)
class ProductionSplit:
    """A two-node production plan for one architecture.

    Attributes
    ----------
    design_factory:
        Ports the architecture to a node (e.g. ``raven_multicore``).
    primary / secondary:
        The two process nodes. They must differ unless ``split`` is 1.0.
    split:
        Fraction of final chips produced on the primary node, in (0, 1].
        ``split == 1.0`` degenerates to single-process manufacturing.
    """

    design_factory: DesignFactory
    primary: str
    secondary: str
    split: float

    def __post_init__(self) -> None:
        if not 0.0 < self.split <= 1.0:
            raise InvalidParameterError(
                f"split must be in (0, 1], got {self.split}"
            )
        if self.primary == self.secondary and self.split < 1.0:
            raise InvalidParameterError(
                "a two-node split needs two distinct nodes "
                f"(both are {self.primary!r})"
            )

    @property
    def allocations(self) -> Dict[str, float]:
        """{node: fraction of chips} with zero-volume nodes dropped."""
        if self.split >= 1.0:
            return {self.primary: 1.0}
        return {self.primary: self.split, self.secondary: 1.0 - self.split}

    @property
    def is_single_process(self) -> bool:
        """True when the whole volume lands on the primary node."""
        return self.split >= 1.0


@dataclass(frozen=True)
class SplitEvaluation:
    """TTM / cost / CAS of one production split."""

    primary: str
    secondary: str
    split: float
    n_chips: float
    ttm_weeks: float
    cost_usd: float
    cas: float
    line_weeks: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "line_weeks", dict(self.line_weeks))

    @property
    def cas_normalized(self) -> float:
        """CAS in the figures' kilo-wafer units."""
        return self.cas / 1000.0

    @property
    def bottleneck_process(self) -> str:
        """The production line that finishes last."""
        return max(self.line_weeks.items(), key=lambda item: item[1])[0]


def split_ttm_weeks(
    plan: ProductionSplit, model: TTMModel, n_chips: float
) -> float:
    """TTM of the split: the slower of the two independent lines."""
    return max(_line_weeks(plan, model, n_chips).values())


def _line_weeks(
    plan: ProductionSplit, model: TTMModel, n_chips: float
) -> Dict[str, float]:
    if n_chips <= 0.0:
        raise InvalidParameterError(
            f"number of final chips must be positive, got {n_chips}"
        )
    lines: Dict[str, float] = {}
    for process, fraction in plan.allocations.items():
        design = plan.design_factory(process)
        lines[process] = model.total_weeks(design, n_chips * fraction)
    return lines


def split_cost_usd(
    plan: ProductionSplit, cost_model: CostModel, n_chips: float
) -> float:
    """Chip-creation cost: NRE per node plus per-line manufacturing."""
    total = 0.0
    for process, fraction in plan.allocations.items():
        design = plan.design_factory(process)
        total += cost_model.total_usd(design, n_chips * fraction)
    return total


def split_cas(
    plan: ProductionSplit,
    model: TTMModel,
    n_chips: float,
    relative_step: float = DEFAULT_RELATIVE_STEP,
) -> float:
    """Eq. 8 over the split's nodes.

    Each node's rate perturbation only moves its own line; the max over
    lines couples them exactly as the packaging-synchronization max does
    for chiplets.
    """
    conditions = model.foundry.conditions
    total_sensitivity = 0.0
    for process in plan.allocations:
        node = model.foundry.technology.require_production(process)
        fraction = conditions.capacity_for(process)
        if fraction <= 0.0:
            raise InvalidParameterError(
                f"cannot evaluate CAS with zero capacity on {process!r}"
            )
        max_rate = node.max_wafer_rate_per_week

        def ttm_at_rate(rate: float, _process: str = process) -> float:
            perturbed = model.with_foundry(
                model.foundry.with_conditions(
                    conditions.with_capacity(_process, rate / max_rate)
                )
            )
            return split_ttm_weeks(plan, perturbed, n_chips)

        total_sensitivity += ttm_rate_sensitivity(
            ttm_at_rate, fraction * max_rate, relative_step
        )
    if total_sensitivity <= 0.0:
        raise InvalidParameterError(
            "split has zero TTM sensitivity; CAS is unbounded"
        )
    return 1.0 / total_sensitivity


def evaluate_split(
    plan: ProductionSplit,
    model: TTMModel,
    cost_model: CostModel,
    n_chips: float,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    with_cas: bool = True,
) -> SplitEvaluation:
    """Full TTM / cost / CAS evaluation of one production split."""
    lines = _line_weeks(plan, model, n_chips)
    cas = (
        split_cas(plan, model, n_chips, relative_step) if with_cas else 0.0
    )
    return SplitEvaluation(
        primary=plan.primary,
        secondary=plan.secondary,
        split=plan.split,
        n_chips=n_chips,
        ttm_weeks=max(lines.values()),
        cost_usd=split_cost_usd(plan, cost_model, n_chips),
        cas=cas,
        line_weeks=lines,
    )


def single_process_plan(
    design_factory: DesignFactory, process: str
) -> ProductionSplit:
    """The degenerate one-node plan (baseline for Sec. 7 comparisons)."""
    return ProductionSplit(
        design_factory=design_factory,
        primary=process,
        secondary=process,
        split=1.0,
    )


def make_plan(
    design_factory: DesignFactory,
    primary: str,
    secondary: str,
    split: float,
) -> ProductionSplit:
    """Convenience constructor mirroring the Fig. 14 axes."""
    return ProductionSplit(
        design_factory=design_factory,
        primary=primary,
        secondary=secondary,
        split=split,
    )
