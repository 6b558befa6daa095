"""Single-design TTM, CAS and cost kernels over sweep grids.

Each ``batch_*`` call is the matching :mod:`repro.engine.portfolio`
kernel run on a 1-design portfolio. ``n_chips``, ``capacity`` (mapping
values included), ``queue_weeks``, ``d0_scale`` and ``wafer_rate_scale``
broadcast against each other to one grid shape, are flattened into one
sample vector, and the portfolio's row 0 is reshaped back to the grid —
so a ``(3, 1)`` quantity column against a ``(20,)`` capacity row
evaluates the ``(3, 20)`` quantity-by-capacity matrix in one call. The
results reproduce the scalar :class:`~repro.ttm.model.TTMModel` /
:func:`~repro.agility.cas.chip_agility_score` /
:class:`~repro.cost.model.CostModel` to floating-point round-off (the
equivalence suite pins them to <= 1e-9 relative error).

``capacity=None`` evaluates under the model's *current* market
conditions (per-node fractions intact); an explicit scalar/array
``capacity`` is a *global* fraction applied to every node, exactly like
:meth:`TTMModel.at_capacity` (queue quotes are kept, per-node capacity
entries are dropped); a ``{node: fractions}`` mapping overrides only the
listed nodes (others keep their conditions' fraction), which is how
disruption ensembles hit one fab at a time. ``queue_weeks``,
``d0_scale`` and ``wafer_rate_scale`` sample supply-side parameters per
grid point, with the meanings :func:`~repro.engine.portfolio.portfolio_ttm`
documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..agility.derivative import DEFAULT_RELATIVE_STEP
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..ttm.model import DEFAULT_ENGINEERS, TTMModel
from .portfolio import (
    _WAFERS_PER_NORMALIZED_UNIT,
    ArrayLike,
    CapacityLike,
    _as_positive_array,
    portfolio_cas,
    portfolio_cost,
    portfolio_ttm,
)

#: Message names of the sampled supply inputs (as the kernels word them).
_SAMPLED = {
    "queue_weeks": "queue weeks",
    "d0_scale": "defect density scale",
    "wafer_rate_scale": "wafer rate scale",
}


@dataclass(frozen=True)
class BatchTTMResult:
    """Vectorized TTM breakdown (all arrays share the grid shape).

    The fields mirror :class:`~repro.ttm.result.TTMResult`'s phase
    decomposition.
    """

    design: str
    schedule: str
    design_weeks: float
    tapeout_weeks: np.ndarray
    fabrication_weeks: np.ndarray
    packaging_weeks: np.ndarray
    total_weeks: np.ndarray
    total_wafers: np.ndarray


@dataclass(frozen=True)
class BatchCASResult:
    """Vectorized Chip Agility Score (Eq. 8) over a sweep grid.

    ``cas`` is in raw wafers/week^2; ``normalized`` divides by the fixed
    kilo-wafer unit used in the paper's figures.
    """

    design: str
    cas: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        """CAS in the figures' normalized (kilo-wafer) units."""
        return self.cas / _WAFERS_PER_NORMALIZED_UNIT


def _grid(
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike],
    **sampled: Optional[ArrayLike],
) -> Tuple[Tuple[int, ...], np.ndarray, Optional[CapacityLike], Dict]:
    """``(grid shape, n_chips, capacity, sampled)`` on one flat sample axis."""
    quantities = _as_positive_array(n_chips, "number of final chips")
    arrays = {
        name: _as_positive_array(
            values, _SAMPLED[name], nonnegative=name == "queue_weeks"
        )
        for name, values in sampled.items()
        if values is not None
    }
    levels = []
    if isinstance(capacity, Mapping):
        capacity = {
            node: _as_positive_array(values, f"capacity fraction for {node!r}")
            for node, values in capacity.items()
        }
        levels = list(capacity.values())
    elif capacity is not None:
        capacity = _as_positive_array(capacity, "capacity fraction")
        levels = [capacity]
    shape = np.broadcast_shapes(
        quantities.shape, *(a.shape for a in (*levels, *arrays.values()))
    )

    def flat(values: np.ndarray) -> np.ndarray:
        return np.broadcast_to(values, shape).reshape(-1)

    if isinstance(capacity, Mapping):
        capacity = {node: flat(values) for node, values in capacity.items()}
    elif capacity is not None:
        capacity = flat(capacity)
    return shape, flat(quantities), capacity, {
        name: flat(values) for name, values in arrays.items()
    }


def batch_ttm(
    model: TTMModel,
    design: ChipDesign,
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
) -> BatchTTMResult:
    """Vectorized ``TTMModel.time_to_market`` over one design's grid.

    ``capacity``, ``queue_weeks``, ``d0_scale`` and ``wafer_rate_scale``
    mean what they mean for :func:`~repro.engine.portfolio.portfolio_ttm`
    (see the module docstring); every array input broadcasts against the
    others and ``n_chips``.
    """
    shape, quantities, capacity, sampled = _grid(
        n_chips,
        capacity,
        queue_weeks=queue_weeks,
        d0_scale=d0_scale,
        wafer_rate_scale=wafer_rate_scale,
    )
    result = portfolio_ttm(
        model, (design,), quantities, capacity=capacity, **sampled
    )
    return BatchTTMResult(
        design=design.name,
        schedule=result.schedule,
        design_weeks=float(result.design_weeks[0]),
        tapeout_weeks=result.tapeout_weeks[0].reshape(shape),
        fabrication_weeks=result.fabrication_weeks[0].reshape(shape),
        packaging_weeks=result.packaging_weeks[0].reshape(shape),
        total_weeks=result.total_weeks[0].reshape(shape),
        total_wafers=result.total_wafers[0].reshape(shape),
    )


def batch_cas(
    model: TTMModel,
    design: ChipDesign,
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
) -> BatchCASResult:
    """Vectorized Chip Agility Score (Eq. 8) over one design's grid.

    Mirrors :func:`repro.agility.cas.chip_agility_score` evaluated at
    ``model.at_capacity(f)`` for every ``f`` in ``capacity`` (or at the
    model's current conditions when ``capacity is None``); the inputs
    broadcast as in :func:`batch_ttm`.
    """
    shape, quantities, capacity, sampled = _grid(
        n_chips,
        capacity,
        queue_weeks=queue_weeks,
        d0_scale=d0_scale,
        wafer_rate_scale=wafer_rate_scale,
    )
    result = portfolio_cas(
        model,
        (design,),
        quantities,
        capacity=capacity,
        relative_step=relative_step,
        **sampled,
    )
    return BatchCASResult(
        design=design.name, cas=result.cas[0].reshape(shape)
    )


@dataclass(frozen=True)
class BatchCostResult:
    """Vectorized chip-creation cost breakdown (arrays share one shape).

    NRE terms are supply-independent scalars; the recurring terms vary
    with the sampled quantity and defect density. All USD, mirroring
    :class:`~repro.cost.model.CostResult`.
    """

    design: str
    engineering_usd: float
    fixed_usd: float
    mask_usd: float
    wafer_usd: np.ndarray
    testing_usd: np.ndarray
    packaging_usd: np.ndarray
    n_chips: np.ndarray

    @property
    def nre_usd(self) -> float:
        """One-time costs: engineering + fixed bring-up + masks."""
        return self.engineering_usd + self.fixed_usd + self.mask_usd

    @property
    def manufacturing_usd(self) -> np.ndarray:
        """Recurring costs: wafers + testing + packaging."""
        return self.wafer_usd + self.testing_usd + self.packaging_usd

    @property
    def total_usd(self) -> np.ndarray:
        """Total chip-creation cost per sample."""
        return self.nre_usd + self.manufacturing_usd

    @property
    def usd_per_chip(self) -> np.ndarray:
        """Total cost amortized over each sample's production run."""
        return self.total_usd / self.n_chips


def batch_cost(
    cost_model: CostModel,
    design: ChipDesign,
    n_chips: ArrayLike,
    d0_scale: Optional[ArrayLike] = None,
    engineers: int = DEFAULT_ENGINEERS,
) -> BatchCostResult:
    """Vectorized ``CostModel.chip_creation_cost`` over sampled inputs.

    Reproduces the scalar cost model over per-sample quantities and an
    optional per-sample defect-density multiplier (broadcast against
    each other). ``engineers`` only selects which compiled table is
    reused (the cost terms are team-size independent); pass the
    companion TTM model's team size so a joint TTM+cost study shares one
    cache entry.
    """
    shape, quantities, _, sampled = _grid(n_chips, None, d0_scale=d0_scale)
    result = portfolio_cost(
        cost_model, (design,), quantities, engineers=engineers, **sampled
    )
    return BatchCostResult(
        design=design.name,
        engineering_usd=float(result.engineering_usd[0]),
        fixed_usd=float(result.fixed_usd[0]),
        mask_usd=float(result.mask_usd[0]),
        wafer_usd=result.wafer_usd[0].reshape(shape),
        testing_usd=result.testing_usd[0].reshape(shape),
        packaging_usd=result.packaging_usd[0].reshape(shape),
        n_chips=result.n_chips[0].reshape(shape),
    )


def ttm_over_capacity(
    model: TTMModel,
    design: ChipDesign,
    n_chips: float,
    fractions: Sequence[float],
) -> np.ndarray:
    """Total TTM over a global capacity sweep (batched ``ttm_curve``)."""
    return batch_ttm(model, design, n_chips, capacity=fractions).total_weeks


def cas_over_capacity(
    model: TTMModel,
    design: ChipDesign,
    n_chips: float,
    fractions: Sequence[float],
    relative_step: float = DEFAULT_RELATIVE_STEP,
) -> np.ndarray:
    """Normalized CAS over a global capacity sweep (batched ``cas_curve``)."""
    return batch_cas(
        model, design, n_chips, capacity=fractions, relative_step=relative_step
    ).normalized


__all__ = [
    "BatchCASResult",
    "BatchCostResult",
    "BatchTTMResult",
    "batch_cas",
    "batch_cost",
    "batch_ttm",
    "cas_over_capacity",
    "ttm_over_capacity",
]
