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

A plan is a share vector over nodes (:attr:`ProductionSplit.allocations`);
its scalar evaluation is
:func:`repro.multiprocess.allocation.evaluate_allocation`, the same one
the K-way extension uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from ..design.chip import ChipDesign
from ..errors import InvalidParameterError

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
