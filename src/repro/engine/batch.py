"""Vectorized TTM and CAS kernels.

These kernels evaluate the paper's models over whole sweep grids in a
handful of NumPy array operations instead of one Python call per point.
They consume the cached :class:`~repro.engine.invariants.DesignInvariants`
and reproduce the scalar :class:`~repro.ttm.model.TTMModel` /
:func:`~repro.agility.cas.chip_agility_score` results to floating-point
round-off (the equivalence suite pins them to <= 1e-9 relative error).

``n_chips`` and ``capacity`` broadcast against each other, so a single
call evaluates a quantity-by-capacity matrix. ``capacity=None`` evaluates
under the model's *current* market conditions (per-node fractions intact);
an explicit scalar/array ``capacity`` is a *global* fraction applied to
every node, exactly like :meth:`TTMModel.at_capacity` (queue quotes are
kept, per-node capacity entries are dropped); a ``{node: fractions}``
mapping overrides only the listed nodes (others keep their conditions'
fraction), which is how disruption ensembles hit one fab at a time.

Monte Carlo workloads additionally sample supply-side parameters per row:
``queue_weeks`` (global quoted lead time), ``d0_scale`` (multiplier on
every node's defect density — yield, wafer demand and tested-die counts
are re-derived from the cached per-die profiles), and
``wafer_rate_scale`` (multiplier on every node's *maximum* rate — the
queue quote's wafer backlog scales with it, Sec. 6.3). Each accepts a
scalar or an array broadcasting against ``n_chips``/``capacity``, and
``batch_ttm``/``batch_cas``/``batch_cost`` stay bit-identical to the
pre-sampling behavior when they are left ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..agility.derivative import DEFAULT_RELATIVE_STEP
from ..cost.model import CostModel
from ..cost.nre import design_nre
from ..design.chip import ChipDesign
from ..errors import InvalidParameterError
from ..obs.instrument import observed_kernel
from ..ttm.model import DEFAULT_ENGINEERS, TTMModel
from .invariants import DesignInvariants, design_invariants

ArrayLike = Union[float, Sequence[float], np.ndarray]

#: ``capacity`` argument: global scalar/array or per-node mapping.
CapacityLike = Union[ArrayLike, Mapping[str, ArrayLike]]

#: Raw wafers/week^2 per normalized CAS unit (mirrors ``repro.agility.cas``).
_WAFERS_PER_NORMALIZED_UNIT = 1000.0


@dataclass(frozen=True)
class BatchTTMResult:
    """Vectorized TTM breakdown (all arrays share one broadcast shape).

    The fields mirror :class:`~repro.ttm.result.TTMResult`'s phase
    decomposition; ``per_node_ready_weeks`` maps process name to the
    node's tapeout + fabrication completion time (pipelined reading).
    """

    design: str
    schedule: str
    design_weeks: float
    tapeout_weeks: np.ndarray
    fabrication_weeks: np.ndarray
    packaging_weeks: np.ndarray
    total_weeks: np.ndarray
    total_wafers: np.ndarray
    per_node_ready_weeks: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "per_node_ready_weeks", dict(self.per_node_ready_weeks)
        )


@dataclass(frozen=True)
class BatchCASResult:
    """Vectorized Chip Agility Score (Eq. 8) over a sweep grid.

    ``cas`` is in raw wafers/week^2; ``normalized`` divides by the fixed
    kilo-wafer unit used in the paper's figures. ``sensitivity`` maps
    process name -> |dTTM/dmu_W| arrays.
    """

    design: str
    cas: np.ndarray
    sensitivity: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensitivity", dict(self.sensitivity))

    @property
    def normalized(self) -> np.ndarray:
        """CAS in the figures' normalized (kilo-wafer) units."""
        return self.cas / _WAFERS_PER_NORMALIZED_UNIT


def _as_positive_array(values: ArrayLike, what: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InvalidParameterError(f"{what} must be non-empty")
    flat = array.reshape(-1)
    if not np.all(flat > 0.0):
        bad = float(flat[~(flat > 0.0)][0])
        raise InvalidParameterError(f"{what} must be positive, got {bad}")
    return array


def _as_nonnegative_array(values: ArrayLike, what: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InvalidParameterError(f"{what} must be non-empty")
    flat = array.reshape(-1)
    if not np.all(flat >= 0.0):
        bad = float(flat[~(flat >= 0.0)][0])
        raise InvalidParameterError(f"{what} must be >= 0, got {bad}")
    return array


@dataclass(frozen=True)
class _SupplyArrays:
    """Per-node supply-side arrays shared by the TTM and CAS kernels.

    ``rates`` are the effective wafer rates (max rate x rate scale x
    capacity fraction), ``backlog`` the quoted wafer backlog (queue weeks
    x *scaled* max rate — the quote is issued at the node's true full
    rate, Sec. 6.3). ``wafers_per_chip`` / ``testing_weeks_per_chip``
    carry the D0-dependent demand terms (cached scalars when D0 is not
    sampled). Entries align with ``DesignInvariants.processes``.
    """

    rates: Tuple[ArrayLike, ...]
    backlog: Tuple[ArrayLike, ...]
    wafers_per_chip: Tuple[ArrayLike, ...]
    testing_weeks_per_chip: ArrayLike


def _supply_arrays(
    model: TTMModel,
    invariants: DesignInvariants,
    capacity: Optional[CapacityLike],
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
) -> _SupplyArrays:
    """Resolve the sampled supply parameters into per-node arrays."""
    conditions = model.foundry.conditions
    rate_scale: ArrayLike = 1.0
    if wafer_rate_scale is not None:
        rate_scale = _as_positive_array(wafer_rate_scale, "wafer rate scale")
    queue_override = None
    if queue_weeks is not None:
        queue_override = _as_nonnegative_array(queue_weeks, "queue weeks")

    shared = None
    mapping: Optional[Mapping[str, ArrayLike]] = None
    if isinstance(capacity, Mapping):
        mapping = {
            name: _as_positive_array(values, f"capacity fraction for {name!r}")
            for name, values in capacity.items()
        }
    elif capacity is not None:
        shared = _as_positive_array(capacity, "capacity fraction")

    rates = []
    backlog = []
    for i, process in enumerate(invariants.processes):
        scaled_max_rate = invariants.max_rate[i] * rate_scale
        if shared is not None:
            fraction: ArrayLike = shared
        elif mapping is not None and process in mapping:
            fraction = mapping[process]
        else:
            fraction = conditions.capacity_for(process)
            if fraction <= 0.0:
                raise InvalidParameterError(
                    f"node {process!r} has zero effective capacity "
                    f"(fraction {fraction}); time-to-market would be unbounded"
                )
        quote = (
            queue_override
            if queue_override is not None
            else conditions.queue_weeks_for(process)
        )
        rates.append(scaled_max_rate * fraction)
        backlog.append(quote * scaled_max_rate)

    if d0_scale is None:
        wafers = tuple(invariants.wafers_per_chip)
        testing: ArrayLike = invariants.testing_weeks_per_chip
    else:
        scale = _as_positive_array(d0_scale, "defect density scale")
        wafers = invariants.wafers_per_chip_at(scale)
        testing = invariants.testing_weeks_per_chip_at(scale)
    return _SupplyArrays(
        rates=tuple(rates),
        backlog=tuple(backlog),
        wafers_per_chip=wafers,
        testing_weeks_per_chip=testing,
    )


@observed_kernel("engine.batch_ttm", lambda r: r.total_weeks.size)
def batch_ttm(
    model: TTMModel,
    design: ChipDesign,
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[DesignInvariants] = None,
) -> BatchTTMResult:
    """Vectorized ``TTMModel.time_to_market`` over quantity/capacity grids.

    Parameters
    ----------
    model:
        The scalar model whose semantics (schedule, staffing, alpha, queue
        quotes) the batch evaluation reproduces.
    design:
        The chip design to evaluate.
    n_chips:
        Final-chip quantities; scalar or array.
    capacity:
        ``None`` evaluates the model's current conditions; a scalar/array
        is a global capacity fraction applied to every node, as in
        :meth:`TTMModel.at_capacity`; a ``{node: fractions}`` mapping
        overrides only the listed nodes. Broadcasts against ``n_chips``.
    queue_weeks:
        Optional global quoted lead time (scalar or per-sample array)
        replacing the conditions' quotes, as in
        ``MarketConditions.with_global_queue``.
    d0_scale:
        Optional multiplier on every node's defect density D0; die
        yields, wafer demand and tested-die counts are re-derived per
        sample (equivalent to ``TechnologyDatabase.override`` on
        ``defect_density_per_cm2``).
    wafer_rate_scale:
        Optional multiplier on every node's *maximum* wafer rate (Table 2
        uncertainty); the queue quote's wafer backlog scales with it.
    invariants:
        Pre-computed invariants for ``design``; ``None`` resolves them
        through the shared LRU.
    """
    if invariants is None:
        invariants = design_invariants(
            design,
            model.foundry.technology,
            model.engineers,
            alpha=model.alpha,
            edge_corrected=model.edge_corrected,
            block_parallel=model.block_parallel,
        )
    quantities = _as_positive_array(n_chips, "number of final chips")
    supply = _supply_arrays(
        model,
        invariants,
        capacity,
        queue_weeks=queue_weeks,
        d0_scale=d0_scale,
        wafer_rate_scale=wafer_rate_scale,
    )
    ready_by_node: Dict[str, np.ndarray] = {}
    node_totals = []
    readies = []
    for i, process in enumerate(invariants.processes):
        rate = supply.rates[i]
        queue_drain_weeks = supply.backlog[i] / rate
        production_weeks = quantities * supply.wafers_per_chip[i] / rate
        node_total = (
            queue_drain_weeks + production_weeks + invariants.fab_latency_weeks[i]
        )
        ready = invariants.tapeout_weeks[i] + node_total
        node_totals.append(node_total)
        readies.append(ready)
        ready_by_node[process] = np.broadcast_to(
            ready, np.broadcast_shapes(np.shape(ready), quantities.shape)
        )

    if model.schedule == "pipelined":
        tapeout_weeks = float(np.max(invariants.tapeout_weeks))
        ready = readies[0]
        for other in readies[1:]:
            ready = np.maximum(ready, other)
        fabrication_weeks = ready - tapeout_weeks
    else:
        tapeout_weeks = invariants.sequential_tapeout_weeks
        fabrication_weeks = node_totals[0]
        for other in node_totals[1:]:
            fabrication_weeks = np.maximum(fabrication_weeks, other)

    packaging_weeks = (
        model.tap_latency_weeks
        + quantities * supply.testing_weeks_per_chip
        + quantities * invariants.assembly_weeks_per_chip
    )
    total_weeks = (
        invariants.design_weeks
        + tapeout_weeks
        + fabrication_weeks
        + packaging_weeks
    )
    shape = np.broadcast_shapes(
        quantities.shape, np.shape(fabrication_weeks), np.shape(packaging_weeks)
    )
    return BatchTTMResult(
        design=design.name,
        schedule=model.schedule,
        design_weeks=invariants.design_weeks,
        tapeout_weeks=np.broadcast_to(np.asarray(tapeout_weeks, float), shape),
        fabrication_weeks=np.broadcast_to(
            np.asarray(fabrication_weeks, float), shape
        ),
        packaging_weeks=np.broadcast_to(
            np.asarray(packaging_weeks, float), shape
        ),
        total_weeks=np.broadcast_to(np.asarray(total_weeks, float), shape),
        total_wafers=np.broadcast_to(
            quantities * sum(supply.wafers_per_chip), shape
        ),
        per_node_ready_weeks=ready_by_node,
    )


def _total_weeks_at_rates(
    model: TTMModel,
    invariants: DesignInvariants,
    quantities: np.ndarray,
    supply: _SupplyArrays,
    rates: Sequence[np.ndarray],
) -> np.ndarray:
    """Total TTM with each node at an explicit effective rate array."""
    node_totals = []
    readies = []
    for i in range(len(invariants.processes)):
        queue_weeks = supply.backlog[i] / rates[i]
        production_weeks = quantities * supply.wafers_per_chip[i] / rates[i]
        node_total = (
            queue_weeks + production_weeks + invariants.fab_latency_weeks[i]
        )
        node_totals.append(node_total)
        readies.append(invariants.tapeout_weeks[i] + node_total)
    if model.schedule == "pipelined":
        tapeout_weeks = float(np.max(invariants.tapeout_weeks))
        ready = readies[0]
        for other in readies[1:]:
            ready = np.maximum(ready, other)
        fabrication_weeks = ready - tapeout_weeks
    else:
        tapeout_weeks = invariants.sequential_tapeout_weeks
        fabrication_weeks = node_totals[0]
        for other in node_totals[1:]:
            fabrication_weeks = np.maximum(fabrication_weeks, other)
    packaging_weeks = (
        model.tap_latency_weeks
        + quantities * supply.testing_weeks_per_chip
        + quantities * invariants.assembly_weeks_per_chip
    )
    return (
        invariants.design_weeks
        + tapeout_weeks
        + fabrication_weeks
        + packaging_weeks
    )


@observed_kernel("engine.batch_cas", lambda r: r.cas.size)
def batch_cas(
    model: TTMModel,
    design: ChipDesign,
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[DesignInvariants] = None,
) -> BatchCASResult:
    """Vectorized Chip Agility Score (Eq. 8) over a capacity grid.

    Mirrors :func:`repro.agility.cas.chip_agility_score` evaluated at
    ``model.at_capacity(f)`` for every ``f`` in ``capacity`` (or at the
    model's current conditions when ``capacity is None``): each node's
    rate is perturbed by ``relative_step`` in both directions and the
    central-difference TTM slope is accumulated. ``queue_weeks``,
    ``d0_scale`` and ``wafer_rate_scale`` sample supply-side parameters
    per row exactly as in :func:`batch_ttm`; the queue quote's wafer
    backlog stays pinned while each node's rate is perturbed, matching
    the scalar derivative's semantics.
    """
    if not 0.0 < relative_step < 1.0:
        raise InvalidParameterError(
            f"relative step must be in (0, 1), got {relative_step}"
        )
    if invariants is None:
        invariants = design_invariants(
            design,
            model.foundry.technology,
            model.engineers,
            alpha=model.alpha,
            edge_corrected=model.edge_corrected,
            block_parallel=model.block_parallel,
        )
    quantities = _as_positive_array(n_chips, "number of final chips")
    supply = _supply_arrays(
        model,
        invariants,
        capacity,
        queue_weeks=queue_weeks,
        d0_scale=d0_scale,
        wafer_rate_scale=wafer_rate_scale,
    )
    base_rates = list(supply.rates)
    sensitivities: Dict[str, np.ndarray] = {}
    total = None
    for i, process in enumerate(invariants.processes):
        step = base_rates[i] * relative_step
        perturbed_ttm = []
        for sign in (+1.0, -1.0):
            rate = base_rates[i] + sign * step
            # Mirror the scalar path's rate -> fraction -> rate round trip
            # (conditions store fractions, the foundry rescales by max rate).
            effective = invariants.max_rate[i] * (
                rate / invariants.max_rate[i]
            )
            rates = list(base_rates)
            rates[i] = effective
            perturbed_ttm.append(
                _total_weeks_at_rates(
                    model, invariants, quantities, supply, rates
                )
            )
        slope = (perturbed_ttm[0] - perturbed_ttm[1]) / (2.0 * step)
        sensitivity = np.abs(slope)
        sensitivities[process] = sensitivity
        total = sensitivity if total is None else total + sensitivity

    if not np.all(total > 0.0):
        raise InvalidParameterError(
            f"design {design.name!r} has zero TTM sensitivity on all nodes; "
            "CAS is unbounded (check the production volume is non-trivial)"
        )
    shape = np.shape(total)
    return BatchCASResult(
        design=design.name,
        cas=1.0 / total,
        sensitivity={
            name: np.broadcast_to(np.asarray(value, float), shape)
            for name, value in sensitivities.items()
        },
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


@observed_kernel("engine.batch_cost", lambda r: r.n_chips.size)
def batch_cost(
    cost_model: CostModel,
    design: ChipDesign,
    n_chips: ArrayLike,
    d0_scale: Optional[ArrayLike] = None,
    engineers: int = DEFAULT_ENGINEERS,
    invariants: Optional[DesignInvariants] = None,
) -> BatchCostResult:
    """Vectorized ``CostModel.chip_creation_cost`` over sampled inputs.

    Reproduces the scalar cost model over per-sample quantities and an
    optional per-sample defect-density multiplier. ``engineers`` only
    selects which cached invariants entry is reused (the cost terms are
    team-size independent); pass the companion TTM model's team size so a
    joint TTM+cost study shares one cache entry.
    """
    if invariants is None:
        invariants = design_invariants(
            design,
            cost_model.technology,
            engineers,
            alpha=cost_model.alpha,
            edge_corrected=cost_model.edge_corrected,
        )
    quantities = _as_positive_array(n_chips, "number of final chips")
    if d0_scale is None:
        scale: np.ndarray = np.asarray(1.0, dtype=float)
    else:
        scale = _as_positive_array(d0_scale, "defect density scale")
    wafers_per_chip = invariants.wafers_per_chip_at(scale)

    nre = design_nre(
        design, cost_model.technology, cost_model.engineer_week_cost_usd
    )
    wafer_usd: ArrayLike = 0.0
    for i, process in enumerate(invariants.processes):
        node_cost = cost_model.technology[process].wafer_cost_usd
        wafer_usd = wafer_usd + quantities * wafers_per_chip[i] * node_cost

    testing_usd: ArrayLike = 0.0
    packaging_usd: ArrayLike = quantities * cost_model.package_base_usd
    for profile in invariants.die_profiles:
        die_yield = profile.yield_at(scale, invariants.alpha)
        dies_tested = quantities * profile.count / die_yield
        testing_usd = testing_usd + (
            dies_tested * profile.ntt * cost_model.test_usd_per_transistor
        )
        packaging_usd = packaging_usd + quantities * profile.count * (
            cost_model.die_handling_usd
            + profile.area_mm2 * cost_model.package_area_usd_per_mm2
        )

    shape = np.broadcast_shapes(
        quantities.shape, scale.shape, np.shape(wafer_usd)
    )
    return BatchCostResult(
        design=design.name,
        engineering_usd=nre.engineering_usd,
        fixed_usd=nre.fixed_usd,
        mask_usd=nre.mask_usd,
        wafer_usd=np.broadcast_to(np.asarray(wafer_usd, float), shape),
        testing_usd=np.broadcast_to(np.asarray(testing_usd, float), shape),
        packaging_usd=np.broadcast_to(np.asarray(packaging_usd, float), shape),
        n_chips=np.broadcast_to(quantities, shape),
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
