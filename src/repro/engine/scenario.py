"""The one TTM and CAS kernel: a (scenarios x designs x samples) cube.

:func:`_evaluate_cube` evaluates the paper's TTM phases (Eqs. 3-5 and 7)
and Chip Agility Score (Eq. 8) for every design of a compiled table
under every scenario of a :class:`ScenarioSet` and every sample, in one
pass. It is the engine's only TTM and CAS body:
:func:`~repro.engine.portfolio.portfolio_ttm` and
:func:`~repro.engine.portfolio.portfolio_cas` run it on a set holding
one identity scenario (a nominal point is the identity stress), and
:func:`scenario_evaluate` runs it on a stress library, adding
:func:`scenario_cost`. :func:`compile_scenarios` stacks named
:class:`Scenario` transforms into that structure-of-arrays set, and
:func:`apply_scenario` defines what scenario ``k`` does to the base
draws. The scalar model (``TTMModel``, ``chip_agility_score``,
``CostModel``) is the oracle the kernel is tested against.

What one K-scenario pass shares that K one-scenario passes re-derive
(slab ``k`` is bit-identical to the kernel run on scenario ``k``
alone):

* **D0 group sharing** — scenarios sharing a defect-density multiplier
  share bit-identical yield/wafer/testing tensors (the expensive
  ``pow`` pass and the per-die scatter into designs), computed once per
  unique multiplier;
* **(demand, D0) groups** — the ``quantities x wafers`` load and the
  Eq. 7 packaging term are computed once per pair of multipliers;
* **leave-one-out CAS** — perturbing node ``p`` only changes node
  ``p``'s ready time, and the node reduction is a *max* (exact in
  floating point, so reassociation is bitwise safe): CAS recomputes
  one node row per perturbation and recombines it with precomputed
  leave-one-out maxima instead of re-running the full
  ``(designs, nodes, samples)`` pass ``2 x max_nodes`` times, and the
  baseline fabrication max rides along with the forward scan;
* **cost deduplication** — chip-creation cost depends only on the
  demand and D0 transforms, so scenarios sharing that pair share one
  bit-identical cost tensor.

Common random numbers
---------------------
The base sample arrays are shared across *both* the design and scenario
axes: sample ``s`` applies the same drawn world to every design under
every scenario, so scenario deltas (stress minus baseline per sample)
are low-variance paired comparisons. Base supply arrays must be scalars
or 1-D sample vectors (the portfolio CRN rule), and ``capacity`` may be
a ``{node: fractions}`` mapping of such vectors; ``n_chips`` may carry a
per-design leading axis. Scenario transforms are scalar multipliers (a
per-node mapping for capacity), applied through :func:`apply_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..errors import InvalidParameterError
from ..obs.instrument import observed_kernel
from ..ttm.model import DEFAULT_ENGINEERS, TTMModel
from .portfolio import (
    _WAFERS_PER_NORMALIZED_UNIT,
    DEFAULT_RELATIVE_STEP,
    ArrayLike,
    CapacityLike,
    PortfolioInvariants,
    _node_axis,
    _portfolio_cost_from_tensors,
    _portfolio_quantities,
    _readonly,
    _resolve_invariants,
    _sample_array,
    compile_portfolio,
)


@dataclass(frozen=True)
class Scenario:
    """One named stress transform over the sampled supply/demand world.

    Every field is a multiplicative scale on the corresponding base
    sample array (``queue_add_weeks`` is additive, applied after the
    scale). ``capacity_scale`` may be a per-node mapping — e.g. a
    fab-region outage that only hits ``7nm`` — in which case unnamed
    nodes keep multiplier 1.0. Identity transforms (scale 1.0, add 0.0)
    pass the base samples through untouched: the ``baseline`` scenario
    is the set ``portfolio_ttm`` / ``portfolio_cas`` evaluate.
    """

    name: str
    description: str = ""
    demand_scale: float = 1.0
    capacity_scale: Union[float, Mapping[str, float]] = 1.0
    queue_scale: float = 1.0
    queue_add_weeks: float = 0.0
    d0_scale: float = 1.0
    wafer_rate_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidParameterError("scenario name must be non-empty")
        for label, value in (
            ("demand_scale", self.demand_scale),
            ("queue_scale", self.queue_scale),
            ("d0_scale", self.d0_scale),
            ("wafer_rate_scale", self.wafer_rate_scale),
        ):
            if not float(value) > 0.0:
                raise InvalidParameterError(
                    f"scenario {self.name!r}: {label} must be positive, "
                    f"got {value}"
                )
        if not float(self.queue_add_weeks) >= 0.0:
            raise InvalidParameterError(
                f"scenario {self.name!r}: queue_add_weeks must be >= 0, "
                f"got {self.queue_add_weeks}"
            )
        if isinstance(self.capacity_scale, Mapping):
            frozen = tuple(
                (str(node), float(scale))
                for node, scale in self.capacity_scale.items()
            )
            for node, scale in frozen:
                if not scale > 0.0:
                    raise InvalidParameterError(
                        f"scenario {self.name!r}: capacity scale for "
                        f"{node!r} must be positive, got {scale}"
                    )
            object.__setattr__(self, "capacity_scale", dict(frozen))
        elif not float(self.capacity_scale) > 0.0:
            raise InvalidParameterError(
                f"scenario {self.name!r}: capacity_scale must be positive, "
                f"got {self.capacity_scale}"
            )

    @property
    def capacity_nodes(self) -> Tuple[str, ...]:
        """Node names with a per-node capacity multiplier."""
        if isinstance(self.capacity_scale, Mapping):
            return tuple(self.capacity_scale)
        return ()

    def capacity_multiplier(self, node: str) -> float:
        """The capacity multiplier this scenario applies to ``node``."""
        if isinstance(self.capacity_scale, Mapping):
            return float(self.capacity_scale.get(node, 1.0))
        return float(self.capacity_scale)


@dataclass(frozen=True)
class ScenarioSet:
    """Structure-of-arrays stack of compiled scenario transforms.

    Per-scenario vectors have shape ``(n_scenarios,)``;
    ``capacity_node_scale`` is ``(n_scenarios, len(capacity_nodes))``
    and holds the *effective* per-node multiplier (a scenario's global
    multiplier where it names no override), so column lookups never
    branch. ``queue_identity`` marks scenarios whose queue transform is
    the exact identity (scale 1.0, add 0.0) — those pass the base
    samples through untouched instead of computing ``q*1.0 + 0.0``.
    """

    names: Tuple[str, ...]
    demand_scale: np.ndarray
    capacity_scale: np.ndarray
    capacity_nodes: Tuple[str, ...]
    capacity_node_scale: np.ndarray
    queue_scale: np.ndarray
    queue_add_weeks: np.ndarray
    queue_identity: np.ndarray
    d0_scale: np.ndarray
    wafer_rate_scale: np.ndarray
    scenarios: Tuple[Scenario, ...] = field(repr=False)

    @property
    def n_scenarios(self) -> int:
        return len(self.names)

    def capacity_multiplier(self, k: int, node: str) -> float:
        """Effective capacity multiplier of scenario ``k`` for ``node``."""
        try:
            column = self.capacity_nodes.index(node)
        except ValueError:
            return float(self.capacity_scale[k])
        return float(self.capacity_node_scale[k, column])

    def subset(self, indices: Sequence[int]) -> "ScenarioSet":
        """A new set holding the scenarios at ``indices`` (that order)."""
        return compile_scenarios([self.scenarios[int(i)] for i in indices])


def compile_scenarios(
    scenarios: Sequence[Union[Scenario, "ScenarioSet"]],
) -> ScenarioSet:
    """Stack :class:`Scenario` transforms into one aligned SoA set."""
    if isinstance(scenarios, ScenarioSet):
        return scenarios
    flat = []
    for entry in scenarios:
        if isinstance(entry, ScenarioSet):
            flat.extend(entry.scenarios)
        else:
            flat.append(entry)
    if not flat:
        raise InvalidParameterError(
            "scenario set must contain at least one scenario"
        )
    names = tuple(s.name for s in flat)
    if len(set(names)) != len(names):
        raise InvalidParameterError(
            "scenario names must be unique within a set"
        )
    nodes: Tuple[str, ...] = ()
    for s in flat:
        for node in s.capacity_nodes:
            if node not in nodes:
                nodes = nodes + (node,)
    k = len(flat)
    cap_global = np.empty(k)
    cap_node = np.empty((k, len(nodes)))
    for i, s in enumerate(flat):
        base = (
            1.0 if isinstance(s.capacity_scale, Mapping)
            else float(s.capacity_scale)
        )
        cap_global[i] = base
        for j, node in enumerate(nodes):
            cap_node[i, j] = s.capacity_multiplier(node) if isinstance(
                s.capacity_scale, Mapping
            ) else base
    queue_scale = np.asarray([s.queue_scale for s in flat], dtype=float)
    queue_add = np.asarray([s.queue_add_weeks for s in flat], dtype=float)
    return ScenarioSet(
        names=names,
        demand_scale=_readonly(
            np.asarray([s.demand_scale for s in flat], dtype=float)
        ),
        capacity_scale=_readonly(cap_global),
        capacity_nodes=nodes,
        capacity_node_scale=_readonly(cap_node),
        queue_scale=_readonly(queue_scale),
        queue_add_weeks=_readonly(queue_add),
        queue_identity=_readonly(
            (queue_scale == 1.0) & (queue_add == 0.0)
        ),
        d0_scale=_readonly(
            np.asarray([s.d0_scale for s in flat], dtype=float)
        ),
        wafer_rate_scale=_readonly(
            np.asarray([s.wafer_rate_scale for s in flat], dtype=float)
        ),
        scenarios=tuple(flat),
    )


#: The one identity scenario ``portfolio_ttm`` / ``portfolio_cas`` run.
_IDENTITY = compile_scenarios([Scenario(name="baseline")])


def _scenario_has_capacity_transform(
    scenario_set: ScenarioSet, k: int
) -> bool:
    if scenario_set.capacity_scale[k] != 1.0:
        return True
    if scenario_set.capacity_nodes:
        return bool(
            np.any(scenario_set.capacity_node_scale[k, :] != 1.0)
        )
    return False


def apply_scenario(
    scenario_set: ScenarioSet,
    k: int,
    *,
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    nodes: Sequence[str] = (),
    conditions=None,
) -> Dict[str, object]:
    """Scenario ``k``'s transform of the base draws, as portfolio kwargs.

    This is the *definition* of a scenario's semantics: slab ``k`` of
    the cube equals ``portfolio_*(**apply_scenario(...))`` bit for bit.
    Identity components pass the base values through untouched
    (including ``None`` and a ``{node: fractions}`` capacity mapping).
    A capacity transform scales each node's resolved base: the global
    ``capacity`` samples, else the node's entry in a capacity mapping,
    else ``conditions.capacity_for(node)``. ``nodes`` (the union of the
    portfolio's process names) and ``conditions`` (the foundry market
    conditions) are needed only when a scenario carries per-node
    capacity multipliers or scales a base that is not one global
    sample array.
    """
    out: Dict[str, object] = {}
    dm = float(scenario_set.demand_scale[k])
    out["n_chips"] = n_chips if dm == 1.0 else np.asarray(
        n_chips, dtype=float
    ) * dm

    per_node = scenario_set.capacity_nodes and bool(
        np.any(scenario_set.capacity_node_scale[k, :] != scenario_set.capacity_scale[k])
    )
    per_node_base = capacity is None or isinstance(capacity, Mapping)
    if not _scenario_has_capacity_transform(scenario_set, k):
        out["capacity"] = capacity
    elif not per_node and not per_node_base:
        cm = float(scenario_set.capacity_scale[k])
        out["capacity"] = np.asarray(capacity, dtype=float) * cm
    else:
        # Per-node multipliers (or a base that varies by node) need the
        # full mapping form: every portfolio node gets base * multiplier
        # so the supply resolver sees one consistent override set.
        if not nodes:
            raise InvalidParameterError(
                f"scenario {scenario_set.names[k]!r} applies per-node "
                "capacity multipliers; pass the portfolio's node names"
            )
        mapping: Dict[str, object] = {}
        for node in nodes:
            mult = scenario_set.capacity_multiplier(k, node)
            if not per_node_base:
                mapping[node] = np.asarray(capacity, dtype=float) * mult
            elif capacity is not None and node in capacity:
                mapping[node] = np.asarray(capacity[node], dtype=float) * mult
            else:
                if conditions is None:
                    raise InvalidParameterError(
                        f"scenario {scenario_set.names[k]!r} scales an "
                        "unspecified capacity base; pass the foundry "
                        "conditions"
                    )
                fraction = conditions.capacity_for(node)
                if fraction <= 0.0:
                    raise InvalidParameterError(
                        f"node {node!r} has zero effective capacity "
                        f"(fraction {fraction}); time-to-market would "
                        "be unbounded"
                    )
                mapping[node] = fraction * mult
        out["capacity"] = mapping

    if bool(scenario_set.queue_identity[k]):
        out["queue_weeks"] = queue_weeks
    else:
        if queue_weeks is None:
            raise InvalidParameterError(
                f"scenario {scenario_set.names[k]!r} transforms queue "
                "weeks but no queue_weeks samples were provided"
            )
        qm = float(scenario_set.queue_scale[k])
        qa = float(scenario_set.queue_add_weeks[k])
        out["queue_weeks"] = (
            np.asarray(queue_weeks, dtype=float) * qm + qa
        )

    g = float(scenario_set.d0_scale[k])
    if g == 1.0:
        out["d0_scale"] = d0_scale
    elif d0_scale is None:
        out["d0_scale"] = g
    else:
        out["d0_scale"] = np.asarray(d0_scale, dtype=float) * g

    wm = float(scenario_set.wafer_rate_scale[k])
    if wm == 1.0:
        out["wafer_rate_scale"] = wafer_rate_scale
    elif wafer_rate_scale is None:
        out["wafer_rate_scale"] = wm
    else:
        out["wafer_rate_scale"] = (
            np.asarray(wafer_rate_scale, dtype=float) * wm
        )
    return out


@dataclass(frozen=True)
class ScenarioTTMResult:
    """TTM over the (scenarios x designs x samples) cube.

    Slice ``[k]`` equals :func:`~repro.engine.portfolio.portfolio_ttm`
    under scenario ``k``'s transformed samples, to the last bit.
    ``tapeout_weeks`` is scenario-invariant, ``(n_scenarios,
    n_designs)``.
    """

    scenarios: Tuple[str, ...]
    designs: Tuple[str, ...]
    schedule: str
    tapeout_weeks: np.ndarray
    fabrication_weeks: np.ndarray
    total_weeks: np.ndarray


@dataclass(frozen=True)
class ScenarioCASResult:
    """Chip Agility Score over the scenario cube, ``(K, D, S)``."""

    scenarios: Tuple[str, ...]
    designs: Tuple[str, ...]
    processes: Tuple[Tuple[str, ...], ...]
    cas: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        """CAS in the figures' normalized (kilo-wafer) units."""
        return self.cas / _WAFERS_PER_NORMALIZED_UNIT


@dataclass(frozen=True)
class ScenarioCostResult:
    """Chip-creation cost over the scenario cube.

    NRE terms are scenario-invariant per-design vectors; ``total_usd``
    is the full ``(n_scenarios, n_designs, n_samples)`` cube (NRE +
    manufacturing), deduplicated across scenarios sharing a (demand,
    D0) transform pair.
    """

    scenarios: Tuple[str, ...]
    designs: Tuple[str, ...]
    nre_usd: np.ndarray
    total_usd: np.ndarray


@dataclass(frozen=True)
class ScenarioCubeResult:
    """One fused evaluation of TTM + CAS (+ cost) over the cube."""

    ttm: ScenarioTTMResult
    cas: ScenarioCASResult
    cost: Optional[ScenarioCostResult]

    @property
    def scenarios(self) -> Tuple[str, ...]:
        return self.ttm.scenarios

    @property
    def designs(self) -> Tuple[str, ...]:
        return self.ttm.designs


def _validate_base(
    n_chips: ArrayLike,
    n_designs: int,
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
) -> Tuple[int, Dict[str, object]]:
    """The sample extent and the validated base draws, as float arrays.

    ``n_chips`` may carry a per-design leading axis; every supply array
    (each value of a capacity mapping included) must be a scalar or a
    1-D sample vector shared across designs and scenarios. Scenario
    transforms keep valid draws valid (positive multipliers, a
    non-negative queue add), so the draws are checked here once.
    """
    _, quantities = _portfolio_quantities(n_chips, n_designs)
    if isinstance(capacity, Mapping):
        capacity = {
            name: _sample_array(values, f"capacity fraction for {name!r}")
            for name, values in capacity.items()
        }
        levels = list(capacity.values())
    elif capacity is not None:
        capacity = _sample_array(capacity, "capacity fraction")
        levels = [capacity]
    else:
        levels = []
    base: Dict[str, object] = {"n_chips": quantities, "capacity": capacity}
    for key, values, what in (
        ("queue_weeks", queue_weeks, "queue weeks"),
        ("d0_scale", d0_scale, "defect density scale"),
        ("wafer_rate_scale", wafer_rate_scale, "wafer rate scale"),
    ):
        if values is not None:
            values = _sample_array(
                values, what, nonnegative=key == "queue_weeks"
            )
            levels.append(values)
        base[key] = values
    lengths = {a.shape[-1] for a in (quantities, *levels) if a.ndim}
    lengths.discard(1)
    if len(lengths) > 1:
        raise InvalidParameterError(
            "sample arrays must share one length (or have length 1); got "
            f"lengths {sorted(lengths)}"
        )
    return (lengths.pop() if lengths else 1), base


@dataclass
class _SupplyScratch:
    """Reusable ``(n_designs, max_nodes, n_samples)`` supply buffers.

    :func:`_portfolio_supply` writes each scenario's resolved tensors
    into these (inputs broadcast up to the buffer shape, so every
    element is the same ufunc on the same operands as a fresh
    temporary). The returned tensors alias the buffers, so the cube
    consumes one scenario's supply before resolving the next.
    """

    scaled: np.ndarray
    rates: np.ndarray
    backlog: np.ndarray
    fraction: np.ndarray


def _portfolio_supply(
    model: TTMModel,
    invariants: PortfolioInvariants,
    capacity: Optional[CapacityLike],
    queue_weeks: Optional[ArrayLike],
    wafer_rate_scale: Optional[ArrayLike],
    scratch: _SupplyScratch,
) -> Tuple[np.ndarray, np.ndarray]:
    """One scenario's ``(rates, backlog)`` tensors, written into ``scratch``.

    The inputs are validated draws (see :func:`_validate_base`) after
    :func:`apply_scenario`'s transform. ``capacity=None`` keeps the
    model's conditions, an array is a global fraction for every node and
    a mapping overrides the nodes it names. Padded node slots carry
    finite values every reduction masks out.
    """
    conditions = model.foundry.conditions
    nodes, mask = invariants.nodes, invariants.node_mask
    scaled_max_rate = np.multiply(
        invariants.max_rate[:, :, None],
        1.0 if wafer_rate_scale is None else wafer_rate_scale,
        out=scratch.scaled,
    )

    def per_slot(per_node: np.ndarray, pad: float) -> np.ndarray:
        return np.where(mask, per_node[invariants.slot_node], pad)

    if capacity is not None and not isinstance(capacity, Mapping):
        fraction = capacity
    else:
        mapping = capacity or {}
        base = np.ones(len(nodes))
        for i, name in enumerate(nodes):
            if name in mapping:
                continue
            base[i] = conditions.capacity_for(name)
            if base[i] <= 0.0:
                raise InvalidParameterError(
                    f"node {name!r} has zero effective capacity "
                    f"(fraction {base[i]}); time-to-market would be "
                    "unbounded"
                )
        fraction = per_slot(base, 1.0)[:, :, None]
        if mapping:
            scratch.fraction[...] = fraction
            fraction = scratch.fraction
            for i, name in enumerate(nodes):
                if name in mapping:
                    fraction[mask & (invariants.slot_node == i)] = (
                        mapping[name]
                    )
    rates = np.multiply(scaled_max_rate, fraction, out=scratch.rates)

    if queue_weeks is None:
        quotes = np.array([conditions.queue_weeks_for(n) for n in nodes])
        queue_weeks = per_slot(quotes, 0.0)[:, :, None]
    backlog = np.multiply(queue_weeks, scaled_max_rate, out=scratch.backlog)
    return rates, backlog


class _D0Groups:
    """Per-unique-D0-multiplier wafer/testing tensors, computed once.

    Scenarios sharing a D0 multiplier transform the base draws into
    bit-identical sample arrays, so their derived tensors (the
    expensive yield ``pow`` and the in-order per-die scatters of
    :meth:`~repro.engine.portfolio.PortfolioInvariants.wafers_per_chip_at`
    and ``testing_weeks_per_chip_at``) are shared.
    """

    def __init__(
        self,
        invariants: PortfolioInvariants,
        d0_base: Optional[ArrayLike],
    ):
        self._invariants = invariants
        self._base = d0_base
        # multiplier -> (wafers, testing, yields); yields is the shared
        # profile_yields pass both tensors were derived from (the table's
        # nominal column on the identity entry, which never runs it).
        self._cache: Dict[
            float, Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def tensors(
        self, multiplier: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = float(multiplier)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        invariants = self._invariants
        if self._base is None and key == 1.0:
            trio: Tuple[np.ndarray, np.ndarray, np.ndarray] = (
                invariants.wafers_per_chip[:, :, None],
                invariants.testing_weeks_per_chip[:, None],
                invariants.profile_nominal_yields,
            )
        else:
            if self._base is None:
                scale: ArrayLike = key
            elif key == 1.0:
                scale = self._base
            else:
                scale = np.asarray(self._base, dtype=float) * key
            scale_array = np.asarray(scale, dtype=float)
            if scale_array.ndim == 0:
                scale_array = scale_array.reshape(1)
            yields = invariants.profile_yields(scale_array)
            trio = (
                invariants.wafers_per_chip_at(scale_array, yields=yields),
                invariants.testing_weeks_per_chip_at(
                    scale_array, yields=yields
                ),
                yields,
            )
        self._cache[key] = trio
        return trio


class _Group(NamedTuple):
    """One (demand, D0) multiplier pair's scenario-invariant tensors."""

    #: Design-axis quantities: the validated demand times the group's
    #: demand multiplier.
    quantities: np.ndarray
    #: ``quantities x wafers per chip``, the first multiply of Eq. 5.
    production_load: np.ndarray
    #: The Eq. 7 packaging weeks, ``(n_designs, n_samples-or-1)``.
    packaging: np.ndarray
    #: Per sparse node position, the packaging rows of its designs.
    packaging_rows: Dict[int, np.ndarray]


class _Cube(NamedTuple):
    """The kernel's tensors, and the groups it built them from."""

    #: ``(n_scenarios, n_designs)``; tapeout is scenario-invariant.
    tapeout: np.ndarray
    #: ``(n_scenarios, n_designs, n_samples)``.
    fabrication: np.ndarray
    total: np.ndarray
    #: Raw wafers/week^2, ``(n_scenarios, n_designs, n_samples)``, or
    #: ``None`` when evaluated without CAS.
    cas: Optional[np.ndarray]
    groups: Dict[Tuple[float, float], _Group]
    d0: _D0Groups


def _evaluate_cube(
    model: TTMModel,
    invariants: PortfolioInvariants,
    scenario_set: ScenarioSet,
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike],
    queue_weeks: Optional[ArrayLike],
    d0_scale: Optional[ArrayLike],
    wafer_rate_scale: Optional[ArrayLike],
    with_cas: bool,
    relative_step: float = DEFAULT_RELATIVE_STEP,
) -> _Cube:
    """TTM phases (and CAS when ``with_cas``) over the whole cube.

    Slab ``k`` follows ``TTMModel.time_to_market`` and
    ``chip_agility_score`` term for term at each sample's conditions
    under :func:`apply_scenario`'s transform of the base draws. The
    returned groups hold each (demand multiplier, D0 multiplier) pair's
    load and packaging tensors, and ``d0`` each D0 multiplier's
    wafer/testing/yield tensors, for callers that report or cost them.
    """
    n_designs, max_nodes = invariants.node_mask.shape
    n_samples, base = _validate_base(
        n_chips, n_designs, capacity, queue_weeks, d0_scale, wafer_rate_scale
    )
    if with_cas and not 0.0 < relative_step < 1.0:
        raise InvalidParameterError(
            f"relative step must be in (0, 1), got {relative_step}"
        )
    k_total = scenario_set.n_scenarios
    pipelined = model.schedule == "pipelined"
    nodes = invariants.nodes
    conditions = model.foundry.conditions

    tapeout_out = np.empty((k_total, n_designs))
    fabrication_out = np.empty((k_total, n_designs, n_samples))
    total_out = np.empty((k_total, n_designs, n_samples))
    cas_out = np.empty((k_total, n_designs, n_samples)) if with_cas else None

    # Scenario-invariant terms, hoisted out of the loop: ``tapeout`` and
    # ``prefix`` are the same additions for every scenario.
    lat3 = invariants.fab_latency_weeks[:, :, None]
    if pipelined:
        tapeout = invariants.max_tapeout_weeks[:, None]
        tap3 = invariants.tapeout_weeks[:, :, None]
    else:
        tapeout = invariants.sequential_tapeout_weeks[:, None]
    prefix = invariants.design_weeks[:, None] + tapeout
    tapeout_out[:] = tapeout[:, 0]

    # Scratch buffers reused across scenarios. Writing ufunc results
    # into preallocated ``out=`` arrays changes only where the bits
    # land, never what they are: each output element is still the same
    # operation on the same operands, so a slab does not depend on the
    # scenarios around it, while the allocator stops paying a fresh
    # multi-megabyte temporary (and its page-zeroing) per op per
    # scenario.
    scratch3 = np.empty((n_designs, max_nodes, n_samples))
    masked = np.empty((n_designs, max_nodes, n_samples))
    supply_scratch = _SupplyScratch(
        scaled=np.empty((n_designs, max_nodes, n_samples)),
        rates=np.empty((n_designs, max_nodes, n_samples)),
        backlog=np.empty((n_designs, max_nodes, n_samples)),
        fraction=np.empty((n_designs, max_nodes, n_samples)),
    )
    # Padded/unused node slots, precomputed once: they are set to -inf
    # before every node-axis max (the active cells are untouched).
    inactive2 = ~invariants.node_mask
    any_inactive = bool(inactive2.any())
    if with_cas:
        loo = np.empty((n_designs, max_nodes, n_samples))
        running = np.empty((n_designs, n_samples))
        step = np.empty((n_designs, n_samples))
        # The +step/-step panels ride a leading sign axis so every
        # elementwise op in the perturbation chain runs once over both
        # signs (same per-cell operands, half the dispatch overhead).
        eff2 = np.empty((2, n_designs, n_samples))
        drain2 = np.empty((2, n_designs, n_samples))
        pert2 = np.empty((2, n_designs, n_samples))
        slope = np.empty((n_designs, n_samples))
        sens = np.empty((n_designs, n_samples))
        # Scenario-invariant per-node operands, sliced (or gathered for
        # the sparse nodes) once instead of per scenario.
        node_plan = []
        for p in range(max_nodes):
            idx = np.flatnonzero(invariants.node_mask[:, p])
            if idx.size == 0:
                node_plan.append(None)
                continue
            if idx.size <= n_designs // 2:
                sel: Optional[np.ndarray] = idx
                max_rate_p = invariants.max_rate[idx, p, None]
                lat_p = invariants.fab_latency_weeks[idx, p, None]
                tap_p = (
                    invariants.tapeout_weeks[idx, p, None]
                    if pipelined
                    else None
                )
                tapeout_p = tapeout[idx]
                prefix_p = prefix[idx]
                inactive_p = None
            else:
                sel = None
                max_rate_p = invariants.max_rate[:, p, None]
                lat_p = invariants.fab_latency_weeks[:, p, None]
                tap_p = (
                    invariants.tapeout_weeks[:, p, None]
                    if pipelined
                    else None
                )
                tapeout_p = tapeout
                prefix_p = prefix
                inactive_p = np.flatnonzero(inactive2[:, p])
            node_plan.append(
                (sel, max_rate_p, lat_p, tap_p, tapeout_p, prefix_p,
                 inactive_p)
            )

    d0_groups = _D0Groups(invariants, base["d0_scale"])
    groups: Dict[Tuple[float, float], _Group] = {}

    for k in range(k_total):
        kwargs = apply_scenario(
            scenario_set, k, **base, nodes=nodes, conditions=conditions
        )
        g = float(scenario_set.d0_scale[k])
        dm = float(scenario_set.demand_scale[k])
        group = groups.get((dm, g))
        if group is None:
            wafers, testing, _ = d0_groups.tensors(g)
            quantities_design = kwargs["n_chips"]
            quantities_node = _node_axis(quantities_design)
            # The first multiply of ``quantities * wafers / rates`` and
            # the packaging tail; both invariant across this
            # (demand, D0) scenario group.
            group = _Group(
                quantities=quantities_design,
                production_load=quantities_node * wafers,
                packaging=model.tap_latency_weeks
                + quantities_design * testing
                + quantities_design
                * invariants.assembly_weeks_per_chip[:, None],
                packaging_rows={},
            )
            groups[dm, g] = group
        production_load, packaging = group.production_load, group.packaging
        # The resolved supply lands in reusable scratch buffers and is
        # consumed fully within this iteration.
        rates, backlog = _portfolio_supply(
            model,
            invariants,
            kwargs["capacity"],
            kwargs["queue_weeks"],
            kwargs["wafer_rate_scale"],
            supply_scratch,
        )
        np.divide(backlog, rates, out=masked)  # queue drain
        np.divide(production_load, rates, out=scratch3)  # production
        np.add(masked, scratch3, out=masked)
        np.add(masked, lat3, out=masked)  # node totals
        if pipelined:
            np.add(tap3, masked, out=masked)  # node-ready times
        if any_inactive:
            masked[inactive2] = -np.inf
        fabrication = fabrication_out[k]
        if with_cas:
            # Leave-one-out node maxima: the node reduction is a max,
            # which is exact in floating point (a pure selection), so
            # recombining a perturbed row with the other rows' running
            # max reproduces the full re-reduction bit-for-bit. The
            # forward scan's final running max IS that full reduction —
            # the same sequential maximum chain ``np.max(masked,
            # axis=1)`` performs, seeded with -inf — so the baseline
            # fabrication reduction rides along for free.
            running.fill(-np.inf)
            for p in range(max_nodes):
                loo[:, p, :] = running
                np.maximum(running, masked[:, p, :], out=running)
            np.copyto(fabrication, running)
            running.fill(-np.inf)
            for p in range(max_nodes - 1, -1, -1):
                np.maximum(loo[:, p, :], running, out=loo[:, p, :])
                np.maximum(running, masked[:, p, :], out=running)
        else:
            np.max(masked, axis=1, out=fabrication)
        if pipelined:
            np.subtract(fabrication, tapeout, out=fabrication)
        total = total_out[k]
        np.add(prefix, fabrication, out=total)
        np.add(total, packaging, out=total)
        if not with_cas:
            continue

        # Per-node central differences. Designs not using node ``p``
        # see both perturbed totals unchanged, so their slope
        # contribution is exactly +0.0 and ``x + 0.0 == x`` bitwise for
        # the non-negative sensitivity accumulator: those rows can be
        # skipped outright. Node positions most designs share run on
        # the full (designs, samples) panel (with a row fix-up for the
        # stragglers); sparse positions gather just the active rows.
        sens.fill(0.0)
        for p in range(max_nodes):
            plan = node_plan[p]
            if plan is None:
                continue
            (
                sel, max_rate, lat_p, tap_p, tapeout_p, prefix_p,
                inactive_p,
            ) = plan
            if sel is not None:
                n_act = sel.size
                row = rates[sel, p, :]
                backlog_p = backlog[sel, p, :]
                load_p = (
                    production_load[sel, p, :]
                    if production_load.ndim == 3
                    else production_load
                )
                loo_p = loo[sel, p, :]
                packaging_p = group.packaging_rows.get(p)
                if packaging_p is None:
                    packaging_p = (
                        packaging[sel]
                        if packaging.ndim == 2
                        else packaging
                    )
                    group.packaging_rows[p] = packaging_p
                step_p = step[:n_act]
                slope_p = slope[:n_act]
                eff_p = eff2[:, :n_act]
                drain_p = drain2[:, :n_act]
                pert_p = pert2[:, :n_act]
            else:
                n_act = n_designs
                row = rates[:, p, :]
                backlog_p = backlog[:, p, :]
                load_p = (
                    production_load[:, p, :]
                    if production_load.ndim == 3
                    else production_load
                )
                loo_p = loo[:, p, :]
                packaging_p = packaging
                step_p, slope_p = step, slope
                eff_p, drain_p, pert_p = eff2, drain2, pert2
            np.multiply(row, relative_step, out=step_p)
            np.add(row, step_p, out=eff_p[0])
            np.subtract(row, step_p, out=eff_p[1])
            # Mirror the scalar path's rate -> fraction -> rate round
            # trip (conditions store fractions).
            np.divide(eff_p, max_rate, out=eff_p)
            np.multiply(max_rate, eff_p, out=eff_p)
            np.divide(backlog_p, eff_p, out=drain_p)  # queue drain
            np.divide(load_p, eff_p, out=eff_p)  # production
            np.add(drain_p, eff_p, out=eff_p)
            np.add(eff_p, lat_p, out=eff_p)  # perturbed node totals
            if pipelined:
                np.add(tap_p, eff_p, out=eff_p)
            # Perturbed fab max. For designs not using node ``p`` the
            # full re-reduction takes max(loo, -inf) == loo (every
            # active node's ready time is finite), so overwriting those
            # rows with the leave-one-out max is the same bits as
            # masking before the maximum.
            np.maximum(loo_p, eff_p, out=pert_p)
            if inactive_p is not None and inactive_p.size:
                pert_p[:, inactive_p] = loo_p[inactive_p]
            if pipelined:
                np.subtract(pert_p, tapeout_p, out=pert_p)
            np.add(prefix_p, pert_p, out=pert_p)
            np.add(pert_p, packaging_p, out=pert_p)
            np.subtract(pert_p[0], pert_p[1], out=slope_p)
            np.multiply(2.0, step_p, out=step_p)
            np.divide(slope_p, step_p, out=slope_p)  # central slope
            np.absolute(slope_p, out=slope_p)
            if sel is not None:
                sens[sel] += slope_p
            else:
                np.add(sens, slope_p, out=sens)
        positive = sens > 0.0
        if not positive.all():
            bad = invariants.designs[int(np.argmin(positive.all(axis=1)))]
            raise InvalidParameterError(
                f"design {bad!r} has zero TTM sensitivity on all nodes "
                f"under scenario {scenario_set.names[k]!r}; CAS is "
                "unbounded (check the production volume is non-trivial)"
            )
        np.divide(1.0, sens, out=cas_out[k])

    return _Cube(
        tapeout_out, fabrication_out, total_out, cas_out, groups, d0_groups
    )


@observed_kernel("engine.scenario_cost", lambda r: r.total_usd.size)
def scenario_cost(
    cost_model: CostModel,
    designs: Optional[Sequence[ChipDesign]],
    n_chips: ArrayLike,
    scenarios: Union[ScenarioSet, Sequence[Scenario]],
    d0_scale: Optional[ArrayLike] = None,
    engineers: int = DEFAULT_ENGINEERS,
    invariants: Optional[PortfolioInvariants] = None,
    _cube: Optional[_Cube] = None,
) -> ScenarioCostResult:
    """Chip-creation cost over the cube, deduplicated per (demand, D0).

    Cost depends only on the demand and defect-density transforms, so
    scenarios sharing that pair share one bit-identical
    :func:`~repro.engine.portfolio.portfolio_cost` evaluation. ``_cube``
    lets :func:`scenario_evaluate` lend the TTM cube's per-group
    ``quantities x wafers`` products and per-D0 wafer/yield tensors to
    the cost kernel (same ``pow`` and multiplies, computed once).
    """
    if invariants is None:
        invariants = compile_portfolio(
            designs,
            cost_model.technology,
            engineers=engineers,
            alpha=cost_model.alpha,
            edge_corrected=cost_model.edge_corrected,
        )
    scenario_set = compile_scenarios(scenarios)
    n_designs = invariants.n_designs
    n_samples, base = _validate_base(n_chips, n_designs, d0_scale=d0_scale)
    k_total = scenario_set.n_scenarios
    total_out = np.empty((k_total, n_designs, n_samples))
    nre: Optional[np.ndarray] = None
    cache: Dict[Tuple[float, float], np.ndarray] = {}
    # The pow-heavy D0 tensors (wafer/yield) depend only on the D0
    # multiplier, so they are computed once per unique multiplier and
    # shared across every (demand, D0) combination —
    # same tensors, same downstream arithmetic, identical bits. The
    # quantities and the per-profile dies numerator depend only on the
    # demand multiplier and are shared the same way along the other
    # axis of the (demand, D0) grid.
    d0_groups = _cube.d0 if _cube is not None else _D0Groups(
        invariants, base["d0_scale"]
    )
    dm_tensors: Dict[
        float, Tuple[np.ndarray, np.ndarray, np.ndarray]
    ] = {}
    for k in range(k_total):
        dm = float(scenario_set.demand_scale[k])
        g = float(scenario_set.d0_scale[k])
        hit = cache.get((dm, g))
        if hit is None:
            wafers, _, yields = d0_groups.tensors(g)
            trio = dm_tensors.get(dm)
            if trio is None:
                quantities_design = base["n_chips"]
                if dm != 1.0:
                    quantities_design = quantities_design * dm
                quantities_node = _node_axis(quantities_design)
                profile_quantities = (
                    quantities_design[invariants.profile_design]
                    if quantities_design.ndim == 2
                    else quantities_design
                )
                trio = (
                    quantities_node,
                    quantities_design,
                    profile_quantities
                    * invariants.profile_count[:, None],
                )
                dm_tensors[dm] = trio
            result = _portfolio_cost_from_tensors(
                cost_model,
                invariants,
                trio[0],
                trio[1],
                wafers,
                yields,
                production_load=(
                    _cube.groups[dm, g].production_load
                    if _cube is not None
                    else None
                ),
                dies_numerator=trio[2],
            )
            if nre is None:
                nre = result.nre_usd
            hit = np.broadcast_to(
                result.total_usd, (n_designs, n_samples)
            )
            cache[(dm, g)] = hit
        total_out[k] = hit
    return ScenarioCostResult(
        scenarios=scenario_set.names,
        designs=invariants.designs,
        nre_usd=nre,
        total_usd=total_out,
    )


def scenario_evaluate(
    model: TTMModel,
    cost_model: Optional[CostModel],
    designs: Optional[Sequence[ChipDesign]],
    n_chips: ArrayLike,
    scenarios: Union[ScenarioSet, Sequence[Scenario]],
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    invariants: Optional[PortfolioInvariants] = None,
) -> ScenarioCubeResult:
    """TTM + CAS (+ cost when ``cost_model`` is given) over the cube.

    Slab ``k`` of every tensor equals the ``portfolio_*`` call over
    :func:`apply_scenario`'s transform of the base draws, bit for bit.
    TTM and CAS share one resolved supply and one baseline pass per
    scenario, and cost reuses the cube's D0 and load tensors.
    """
    invariants = _resolve_invariants(model, designs, invariants)
    scenario_set = compile_scenarios(scenarios)
    cube = _evaluate_cube(
        model,
        invariants,
        scenario_set,
        n_chips,
        capacity,
        queue_weeks,
        d0_scale,
        wafer_rate_scale,
        with_cas=True,
        relative_step=relative_step,
    )
    ttm = ScenarioTTMResult(
        scenarios=scenario_set.names,
        designs=invariants.designs,
        schedule=model.schedule,
        tapeout_weeks=cube.tapeout,
        fabrication_weeks=cube.fabrication,
        total_weeks=cube.total,
    )
    cas_result = ScenarioCASResult(
        scenarios=scenario_set.names,
        designs=invariants.designs,
        processes=invariants.processes,
        cas=cube.cas,
    )
    cost_result = None
    if cost_model is not None:
        cost_result = scenario_cost(
            cost_model,
            designs,
            n_chips,
            scenario_set,
            d0_scale=d0_scale,
            engineers=model.engineers,
            invariants=invariants,
            _cube=cube,
        )
    return ScenarioCubeResult(ttm=ttm, cas=cas_result, cost=cost_result)


__all__ = [
    "Scenario",
    "ScenarioCASResult",
    "ScenarioCostResult",
    "ScenarioCubeResult",
    "ScenarioSet",
    "ScenarioTTMResult",
    "apply_scenario",
    "compile_scenarios",
    "scenario_cost",
    "scenario_evaluate",
]
