"""The one evaluation call: TTM, CAS and cost over a scenario cube.

:func:`evaluate` answers the paper's three questions of a compiled design
table -- TTM (Eqs. 2-7), the Chip Agility Score (Eq. 8) and chip-creation
cost -- for every design under every scenario of a :class:`ScenarioSet`
and every sample, a (scenarios x designs x samples) cube, in one call.
Its TTM and CAS body, :func:`_evaluate_cube`, is the engine's only one;
cost reads the same pass's D0 and load tensors. A call with no scenario
set evaluates one identity scenario (a nominal point is the identity
stress), so every result carries the scenario axis.
:func:`compile_scenarios` stacks named :class:`Scenario` transforms into
that structure-of-arrays set, and :func:`apply_scenario` defines what
scenario ``k`` does to the base draws. The scalar model (``TTMModel``,
``chip_agility_score``, ``CostModel``) is the oracle the kernel is
tested against.

What one K-scenario pass shares that K one-scenario passes re-derive
(slab ``k`` is bit-identical to the call on scenario ``k`` alone):

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
  bit-identical cost evaluation.

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
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..agility.derivative import DEFAULT_RELATIVE_STEP
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..errors import InvalidParameterError
from ..obs.instrument import observed_kernel
from ..ttm.model import TTMModel
from .knobs import POINT_METRICS
from .portfolio import (
    _WAFERS_PER_NORMALIZED_UNIT,
    ArrayLike,
    CapacityLike,
    PortfolioInvariants,
    _node_axis,
    _portfolio_quantities,
    _readonly,
    _resolve_invariants,
    _sample_array,
    _scatter_in_order,
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
    is the one :func:`evaluate` runs when given no scenario set.
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


#: The one identity scenario :func:`evaluate` runs by default.
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
    the cube equals ``evaluate(**apply_scenario(...))`` on the identity
    scenario, bit for bit.
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
    """Per-unique-D0-multiplier yield/wafer/testing tensors, computed once.

    Scenarios sharing a D0 multiplier transform the base draws into
    bit-identical sample arrays, so their derived tensors (the
    expensive yield ``pow`` and the in-order per-die scatters of
    :meth:`~repro.engine.portfolio.PortfolioInvariants.wafers_per_chip_at`
    and ``testing_weeks_per_chip_at``) are shared. The identity entry of
    nominal draws reads the table's nominal columns, which never run
    the ``pow``; testing, which only TTM reads, is derived on demand.
    """

    def __init__(
        self,
        invariants: PortfolioInvariants,
        d0_base: Optional[ArrayLike],
    ):
        self._invariants = invariants
        self._base = d0_base
        # multiplier -> (yields, wafers per chip), and -> testing weeks.
        self._tensors: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        self._testing: Dict[float, np.ndarray] = {}

    def _scale(self, key: float) -> Optional[np.ndarray]:
        """The D0 scale samples of ``key``; ``None`` for the nominal
        columns (no D0 draws, identity multiplier)."""
        if self._base is None:
            return None if key == 1.0 else np.array([key])
        if key == 1.0:
            return np.atleast_1d(np.asarray(self._base, dtype=float))
        return np.atleast_1d(np.asarray(self._base, dtype=float) * key)

    def wafers_and_yields(
        self, multiplier: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Wafers per chip ``(designs, nodes, samples)`` and die yields."""
        key = float(multiplier)
        entry = self._tensors.get(key)
        if entry is None:
            invariants = self._invariants
            scale = self._scale(key)
            if scale is None:
                entry = (
                    invariants.profile_nominal_yields,
                    invariants.wafers_per_chip[:, :, None],
                )
            else:
                yields = invariants.profile_yields(scale)
                entry = (
                    yields,
                    invariants.wafers_per_chip_at(scale, yields=yields),
                )
            self._tensors[key] = entry
        return entry[1], entry[0]

    def testing(self, multiplier: float) -> np.ndarray:
        """The Eq. 7 testing weeks per chip, ``(designs, samples)``."""
        key = float(multiplier)
        testing = self._testing.get(key)
        if testing is None:
            _, yields = self.wafers_and_yields(key)
            scale = self._scale(key)
            testing = (
                self._invariants.testing_weeks_per_chip[:, None]
                if scale is None
                else self._invariants.testing_weeks_per_chip_at(
                    scale, yields=yields
                )
            )
            self._testing[key] = testing
        return testing


def _pairs(scenario_set: ScenarioSet) -> List[Tuple[float, float]]:
    """Each scenario's (demand multiplier, D0 multiplier) pair."""
    return list(
        zip(
            scenario_set.demand_scale.tolist(),
            scenario_set.d0_scale.tolist(),
        )
    )


class _Group(NamedTuple):
    """One (demand, D0) multiplier pair's scenario-invariant tensors."""

    #: Design-axis quantities: the validated demand times the group's
    #: demand multiplier.
    quantities: np.ndarray
    #: The D0 group's wafers per chip, ``(n_designs, max_nodes, n)``.
    wafers: np.ndarray
    #: The Eq. 7 packaging weeks, ``(n_designs, n_samples-or-1)``.
    packaging: np.ndarray
    #: Per sparse node position, the packaging rows of its designs.
    packaging_rows: Dict[int, np.ndarray]


class _Cube(NamedTuple):
    """The kernel's tensors, and the groups it built them from."""

    #: ``(n_scenarios, n_designs, n_samples)``.
    fabrication: np.ndarray
    total: np.ndarray
    #: Raw wafers/week^2, ``(n_scenarios, n_designs, n_samples)``, or
    #: ``None`` when evaluated without CAS.
    cas: Optional[np.ndarray]
    groups: Dict[Tuple[float, float], _Group]
    #: Per (demand, D0) pair, ``quantities x wafers per chip`` (the
    #: first multiply of Eq. 5). Pricing pops each one as it is used,
    #: so the loads do not outlive the call.
    loads: Dict[Tuple[float, float], np.ndarray]
    d0: _D0Groups


def _evaluate_cube(
    model: TTMModel,
    invariants: PortfolioInvariants,
    scenario_set: ScenarioSet,
    n_samples: int,
    base: Mapping[str, object],
    with_cas: bool,
    relative_step: float = DEFAULT_RELATIVE_STEP,
) -> _Cube:
    """TTM phases (and CAS when ``with_cas``) over the whole cube.

    ``n_samples`` and ``base`` are :func:`_validate_base`'s sample
    extent and validated draws. Slab ``k`` follows
    ``TTMModel.time_to_market`` and ``chip_agility_score`` term for term
    at each sample's conditions under :func:`apply_scenario`'s transform
    of the base draws. The
    returned groups hold each (demand multiplier, D0 multiplier) pair's
    load and packaging tensors, in scenario order of first appearance,
    and ``d0`` each D0 multiplier's wafer/testing/yield tensors, for
    :func:`evaluate` to report and cost them.
    """
    n_designs, max_nodes = invariants.node_mask.shape
    if with_cas and not 0.0 < relative_step < 1.0:
        raise InvalidParameterError(
            f"relative step must be in (0, 1), got {relative_step}"
        )
    k_total = scenario_set.n_scenarios
    pipelined = model.schedule == "pipelined"
    nodes = invariants.nodes
    conditions = model.foundry.conditions

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
    loads: Dict[Tuple[float, float], np.ndarray] = {}

    for k, (dm, g) in enumerate(_pairs(scenario_set)):
        kwargs = apply_scenario(
            scenario_set, k, **base, nodes=nodes, conditions=conditions
        )
        group = groups.get((dm, g))
        if group is None:
            wafers, _ = d0_groups.wafers_and_yields(g)
            quantities_design = kwargs["n_chips"]
            # The first multiply of ``quantities * wafers / rates`` and
            # the packaging tail; both invariant across this
            # (demand, D0) scenario group.
            loads[dm, g] = _node_axis(quantities_design) * wafers
            group = _Group(
                quantities=quantities_design,
                wafers=wafers,
                packaging=model.tap_latency_weeks
                + quantities_design * d0_groups.testing(g)
                + quantities_design
                * invariants.assembly_weeks_per_chip[:, None],
                packaging_rows={},
            )
            groups[dm, g] = group
        production_load, packaging = loads[dm, g], group.packaging
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
        fabrication_out, total_out, cas_out, groups, loads, d0_groups
    )


def _per_scenario(
    shape: Tuple[int, ...],
    terms: Sequence[np.ndarray],
    group_of: Sequence[int],
) -> np.ndarray:
    """Per-(demand, D0)-group terms read out along the scenario axis."""
    if len(terms) == 1:
        return np.broadcast_to(terms[0], shape)
    return np.stack([np.broadcast_to(terms[i], shape[1:]) for i in group_of])


@dataclass(frozen=True)
class TTMCube:
    """TTM phases (Eqs. 2-7) over the (scenarios x designs x samples) cube.

    Cell ``[k, i, s]`` of each ``(n_scenarios, n_designs, n_samples)``
    phase is ``TTMModel.time_to_market`` of design ``i`` under sample
    ``s`` of scenario ``k``. ``design_weeks`` and ``tapeout_weeks``
    depend on the design alone, ``(n_designs,)``. ``packaging_weeks``
    and ``total_wafers`` depend on a scenario only through its (demand,
    D0) pair, so they are kept once per pair and read out on access.
    """

    schedule: str
    design_weeks: np.ndarray
    tapeout_weeks: np.ndarray
    fabrication_weeks: np.ndarray
    total_weeks: np.ndarray
    _groups: Tuple[_Group, ...] = field(repr=False)
    _group_of: Tuple[int, ...] = field(repr=False)

    @property
    def packaging_weeks(self) -> np.ndarray:
        """The Eq. 7 packaging phase per cell."""
        return _per_scenario(
            self.total_weeks.shape,
            [group.packaging for group in self._groups],
            self._group_of,
        )

    @property
    def total_wafers(self) -> np.ndarray:
        """Wafers the order consumes across all nodes, per cell."""
        return _per_scenario(
            self.total_weeks.shape,
            [
                group.quantities * np.sum(group.wafers, axis=1)
                for group in self._groups
            ],
            self._group_of,
        )


@dataclass(frozen=True)
class CASCube:
    """Chip Agility Score (Eq. 8) over the cube, raw wafers/week^2."""

    processes: Tuple[Tuple[str, ...], ...]
    cas: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        """CAS in the figures' normalized (kilo-wafer) units."""
        return self.cas / _WAFERS_PER_NORMALIZED_UNIT


class _CostTerms(NamedTuple):
    """One (demand, D0) pair's recurring costs, ``(n_designs, n)``."""

    wafer_usd: np.ndarray
    testing_usd: np.ndarray
    packaging_usd: np.ndarray
    n_chips: np.ndarray


@dataclass(frozen=True)
class CostCube:
    """Chip-creation cost over the cube, mirroring ``CostModel``.

    NRE terms depend on the design alone, ``(n_designs,)``;
    ``total_usd`` is the ``(n_scenarios, n_designs, n_samples)`` cube
    (NRE + manufacturing). The recurring breakdown and the quantities
    depend on a scenario only through its (demand, D0) pair, so they
    are kept once per pair and read out on access.
    """

    engineering_usd: np.ndarray
    fixed_usd: np.ndarray
    mask_usd: np.ndarray
    total_usd: np.ndarray
    _terms: Tuple[_CostTerms, ...] = field(repr=False)
    _group_of: Tuple[int, ...] = field(repr=False)

    def _read(self, name: str) -> np.ndarray:
        return _per_scenario(
            self.total_usd.shape,
            [getattr(terms, name) for terms in self._terms],
            self._group_of,
        )

    @property
    def nre_usd(self) -> np.ndarray:
        """One-time costs per design: engineering + fixed + masks."""
        return self.engineering_usd + self.fixed_usd + self.mask_usd

    @property
    def wafer_usd(self) -> np.ndarray:
        """Wafers bought on every node, per cell."""
        return self._read("wafer_usd")

    @property
    def testing_usd(self) -> np.ndarray:
        """Testing every die, per cell."""
        return self._read("testing_usd")

    @property
    def packaging_usd(self) -> np.ndarray:
        """Packages plus per-die handling and area, per cell."""
        return self._read("packaging_usd")

    @property
    def n_chips(self) -> np.ndarray:
        """Each cell's production run (the demand after its transform)."""
        return self._read("n_chips")

    @property
    def manufacturing_usd(self) -> np.ndarray:
        """Recurring costs: wafers + testing + packaging."""
        return self.wafer_usd + self.testing_usd + self.packaging_usd

    @property
    def usd_per_chip(self) -> np.ndarray:
        """Total cost amortized over each cell's production run."""
        out = np.empty(self.total_usd.shape)
        for k, group in enumerate(self._group_of):
            np.divide(
                self.total_usd[k], self._terms[group].n_chips, out=out[k]
            )
        return out


@dataclass(frozen=True)
class Evaluation:
    """What one :func:`evaluate` call computed; ``None`` where not asked."""

    scenarios: Tuple[str, ...]
    designs: Tuple[str, ...]
    ttm: Optional[TTMCube]
    cas: Optional[CASCube]
    cost: Optional[CostCube]

    @property
    def cells(self) -> int:
        """The (scenario, design, sample) cells evaluated."""
        if self.ttm is not None:
            return self.ttm.total_weeks.size
        if self.cas is not None:
            return self.cas.cas.size
        return self.cost.total_usd.size


def _cost_terms(
    cost_model: CostModel,
    invariants: PortfolioInvariants,
    quantities: np.ndarray,
    wafers_per_chip: np.ndarray,
    yields: np.ndarray,
    production_load: np.ndarray,
    dies_numerator: np.ndarray,
) -> _CostTerms:
    """The recurring cost terms of one (demand, D0) pair.

    Each term mirrors ``CostModel.chip_creation_cost``: wafers bought per
    node, tested dies, and per-package plus per-die packaging.
    ``production_load`` is ``quantities x wafers_per_chip`` on the node
    axis and ``dies_numerator`` the per-profile quantities times
    ``profile_count``; both come in computed, so a pair shares them with
    the TTM pass and with the other pairs of its demand.
    """
    wafer_usd = np.sum(
        production_load * invariants.wafer_cost_usd[:, :, None],
        axis=1,
    )
    dies_tested = dies_numerator / yields
    testing_contribution = (
        dies_tested
        * invariants.profile_ntt[:, None]
        * cost_model.test_usd_per_transistor
    )
    packaging_contribution = dies_numerator * (
        cost_model.die_handling_usd
        + invariants.profile_area_mm2[:, None]
        * cost_model.package_area_usd_per_mm2
    )

    tail = np.broadcast_shapes(
        yields.shape[1:],
        np.shape(quantities)[-1:] if quantities.ndim else (),
    )
    testing_usd = _scatter_in_order(
        np.zeros((invariants.n_designs,) + tail),
        invariants.design_ranks,
        testing_contribution,
    )
    packaging_usd = np.zeros((invariants.n_designs,) + tail)
    packaging_usd += quantities * cost_model.package_base_usd
    _scatter_in_order(
        packaging_usd, invariants.design_ranks, packaging_contribution
    )

    shape = np.broadcast_shapes(
        (invariants.n_designs,) + tail, np.shape(wafer_usd)
    )
    return _CostTerms(
        wafer_usd=np.broadcast_to(np.asarray(wafer_usd, float), shape),
        testing_usd=np.broadcast_to(testing_usd, shape),
        packaging_usd=np.broadcast_to(packaging_usd, shape),
        n_chips=np.broadcast_to(quantities, shape),
    )


def _price(
    cost_model: CostModel,
    invariants: PortfolioInvariants,
    pairs: Sequence[Tuple[float, float]],
    quantities: np.ndarray,
    n_samples: int,
    d0_groups: _D0Groups,
    cube: Optional[_Cube],
) -> CostCube:
    """Chip-creation cost over the cube, once per (demand, D0) pair.

    ``pairs`` holds each scenario's pair and ``quantities`` the
    validated base demand. Scenarios sharing a pair share one
    bit-identical evaluation; the pow-heavy D0 tensors are shared per D0
    multiplier, and the per-profile dies numerator per demand
    multiplier. With ``cube``, each pair's ``quantities x wafers`` load
    is the TTM pass's own.
    """
    engineering = np.sum(
        invariants.tapeout_effort_weeks * cost_model.engineer_week_cost_usd,
        axis=1,
    )
    fixed = np.sum(invariants.tapeout_fixed_usd, axis=1)
    masks = np.sum(invariants.mask_set_usd, axis=1)
    nre = engineering + fixed + masks
    distinct = list(dict.fromkeys(pairs))
    index = {pair: i for i, pair in enumerate(distinct)}
    group_of = tuple(index[pair] for pair in pairs)
    total = np.empty((len(pairs), invariants.n_designs, n_samples))
    by_demand: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
    terms: List[_CostTerms] = []
    for dm, g in distinct:
        wafers, yields = d0_groups.wafers_and_yields(g)
        if dm not in by_demand:
            demand = quantities if dm == 1.0 else quantities * dm
            per_profile = (
                demand[invariants.profile_design]
                if demand.ndim == 2
                else demand
            )
            by_demand[dm] = (
                demand,
                per_profile * invariants.profile_count[:, None],
            )
        demand, dies_numerator = by_demand[dm]
        load = (
            cube.loads.pop((dm, g))
            if cube is not None
            else _node_axis(demand) * wafers
        )
        part = _cost_terms(
            cost_model, invariants, demand, wafers, yields, load,
            dies_numerator,
        )
        # NRE + (wafers + testing + packaging), written once into the
        # pair's first scenario and copied to the rest.
        scenarios = [k for k, i in enumerate(group_of) if i == len(terms)]
        first = total[scenarios[0]]
        np.add(part.wafer_usd, part.testing_usd, out=first)
        np.add(first, part.packaging_usd, out=first)
        np.add(nre[:, None], first, out=first)
        total[scenarios[1:]] = first
        terms.append(part)
    return CostCube(
        engineering_usd=engineering,
        fixed_usd=fixed,
        mask_usd=masks,
        total_usd=total,
        _terms=tuple(terms),
        _group_of=group_of,
    )


def _check_cost_model(model: TTMModel, cost_model: CostModel) -> None:
    """Cost reads the TTM model's table, so both must compile it alike."""
    technology = model.foundry.technology
    for what, ours, theirs in (
        ("technology database", technology, cost_model.technology),
        ("alpha", model.alpha, cost_model.alpha),
        ("edge_corrected", model.edge_corrected, cost_model.edge_corrected),
    ):
        if ours is not theirs and ours != theirs:
            raise InvalidParameterError(
                f"the cost model's {what} differs from the TTM model's; "
                "evaluate cost in a call of its own"
            )


@observed_kernel("engine.evaluate", lambda r: r.cells)
def evaluate(
    model: TTMModel,
    designs: Optional[Sequence[ChipDesign]],
    n_chips: ArrayLike,
    metrics: Sequence[str],
    *,
    scenarios: Optional[Union[ScenarioSet, Sequence[Scenario]]] = None,
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    cost_model: Optional[CostModel] = None,
    invariants: Optional[PortfolioInvariants] = None,
) -> Evaluation:
    """TTM, CAS and/or cost of every design under every scenario.

    ``metrics`` is a non-empty subset of :data:`POINT_METRICS`; each
    metric not asked for is ``None`` in the result. ``scenarios=None``
    evaluates the identity scenario alone. The base draws follow the
    common-random-numbers rule (see the module docstring):
    ``capacity=None`` keeps the model's market conditions, a
    scalar/vector is a global fraction for every node (as in
    :meth:`TTMModel.at_capacity`) and a ``{node: fractions}`` mapping
    overrides the nodes it names; ``queue_weeks`` replaces every node's
    quoted lead time, ``d0_scale`` multiplies every node's defect
    density and ``wafer_rate_scale`` every node's maximum rate (the
    quoted backlog scales with it). ``relative_step`` is the Eq. 8
    central-difference step. ``invariants`` is a pre-compiled table, in
    which case ``designs`` is unused.

    The cube runs once when TTM or CAS is asked (TTM rides on the CAS
    pass), and cost reads its D0 and load tensors: cost then needs a
    ``cost_model`` whose technology database, ``alpha`` and
    ``edge_corrected`` are the TTM model's. A cost-only call compiles
    the cost model's table (``model`` lends only its team size, which
    cost does not read) and runs no cube.
    """
    unknown = [metric for metric in metrics if metric not in POINT_METRICS]
    if unknown or not metrics:
        raise InvalidParameterError(
            f"metrics must be a non-empty subset of {POINT_METRICS}; "
            f"got {tuple(metrics)}"
        )
    timed = "ttm" in metrics or "cas" in metrics
    if "cost" in metrics:
        if cost_model is None:
            raise InvalidParameterError("a cost model is required for 'cost'")
        if timed:
            _check_cost_model(model, cost_model)
    if invariants is None:
        if timed:
            invariants = _resolve_invariants(model, designs)
        else:
            invariants = compile_portfolio(
                designs,
                cost_model.technology,
                engineers=model.engineers,
                alpha=cost_model.alpha,
                edge_corrected=cost_model.edge_corrected,
            )
    scenario_set = (
        _IDENTITY if scenarios is None else compile_scenarios(scenarios)
    )
    n_samples, base = _validate_base(
        n_chips,
        invariants.n_designs,
        capacity,
        queue_weeks,
        d0_scale,
        wafer_rate_scale,
    )
    pairs = _pairs(scenario_set)
    cube = ttm = cas = cost = None
    if timed:
        cube = _evaluate_cube(
            model,
            invariants,
            scenario_set,
            n_samples,
            base,
            with_cas="cas" in metrics,
            relative_step=relative_step,
        )
        groups = list(cube.groups)
        group_of = tuple(map(groups.index, pairs))
        if "ttm" in metrics:
            ttm = TTMCube(
                schedule=model.schedule,
                design_weeks=invariants.design_weeks,
                tapeout_weeks=(
                    invariants.max_tapeout_weeks
                    if model.schedule == "pipelined"
                    else invariants.sequential_tapeout_weeks
                ),
                fabrication_weeks=cube.fabrication,
                total_weeks=cube.total,
                _groups=tuple(cube.groups.values()),
                _group_of=group_of,
            )
        if cube.cas is not None:
            cas = CASCube(processes=invariants.processes, cas=cube.cas)
    if "cost" in metrics:
        cost = _price(
            cost_model,
            invariants,
            pairs,
            base["n_chips"],
            n_samples,
            cube.d0 if cube is not None else _D0Groups(
                invariants, base["d0_scale"]
            ),
            cube,
        )
    return Evaluation(
        scenarios=scenario_set.names,
        designs=invariants.designs,
        ttm=ttm,
        cas=cas,
        cost=cost,
    )


def scenario_evaluate(model, cost_model, designs, n_chips, scenarios, **knobs):
    """Kept only for the benchmark's traced run, which wraps it by name."""
    return evaluate(
        model,
        designs,
        n_chips,
        POINT_METRICS if cost_model is not None else ("ttm", "cas"),
        scenarios=scenarios,
        cost_model=cost_model,
        **knobs,
    )


__all__ = [
    "CASCube",
    "CostCube",
    "Evaluation",
    "POINT_METRICS",
    "Scenario",
    "ScenarioSet",
    "TTMCube",
    "apply_scenario",
    "compile_scenarios",
    "evaluate",
]
