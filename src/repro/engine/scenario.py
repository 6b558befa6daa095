"""Scenario-axis vectorization: one fused (scenarios x designs x samples) pass.

:mod:`repro.engine.portfolio` fused the design axis; every multi-scenario
study still pays a Python loop of per-scenario ``portfolio_*`` calls,
re-resolving the sampled supply, re-deriving the D0-dependent yield
tensors and re-running the full CAS perturbation sweep for each scenario.
This module promotes the scenario axis to a tensor dimension:
:func:`compile_scenarios` stacks named :class:`Scenario` transforms into
a structure-of-arrays :class:`ScenarioSet`, and :func:`scenario_ttm` /
:func:`scenario_cas` / :func:`scenario_cost` /
:func:`scenario_evaluate` evaluate the full ``(n_scenarios, n_designs,
n_samples)`` cube in one call, bit-for-bit identical to the looped
per-scenario oracle (``apply_scenario`` + ``portfolio_*``).

Where the fused speedup comes from (the looped oracle re-pays all of it
per scenario):

* **D0 group sharing** — scenarios sharing a defect-density multiplier
  share bit-identical yield/wafer/testing tensors (the expensive
  ``pow`` pass and the per-die scatter into designs), computed once per
  unique multiplier;
* **one supply + baseline** — TTM and CAS share one resolved supply and
  one baseline total-weeks pass per scenario instead of two;
* **leave-one-out CAS** — perturbing node ``p`` only changes node
  ``p``'s ready time, and the node reduction is a *max* (exact in
  floating point, so reassociation is bitwise safe): the fused CAS
  recomputes one node row per perturbation and recombines it with
  precomputed leave-one-out maxima instead of re-running the full
  ``(designs, nodes, samples)`` pass ``2 x max_nodes`` times;
* **cost deduplication** — chip-creation cost depends only on the
  demand and D0 transforms, so scenarios sharing that pair share one
  bit-identical cost tensor.

Common random numbers
---------------------
The base sample arrays are shared across *both* the design and scenario
axes: sample ``s`` applies the same drawn world to every design under
every scenario, so scenario deltas (stress minus baseline per sample)
are low-variance paired comparisons. Base supply arrays must be scalars
or 1-D sample vectors (the portfolio CRN rule); ``n_chips`` may carry a
per-design leading axis. Scenario transforms are scalar multipliers (a
per-node mapping for capacity), applied identically in the fused path
and the oracle via :func:`apply_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

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
    PortfolioInvariants,
    _portfolio_cost_from_tensors,
    _portfolio_quantities,
    _portfolio_supply,
    _readonly,
    _resolve_invariants,
    _sample_array,
    _SupplyScratch,
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
    pass the base samples through untouched, so the ``baseline``
    scenario reproduces a raw ``portfolio_*`` call bit-for-bit.
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
    capacity: Optional[ArrayLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    nodes: Sequence[str] = (),
    conditions=None,
) -> Dict[str, object]:
    """Scenario ``k``'s transform of the base draws, as portfolio kwargs.

    This is the *definition* of a scenario's semantics: the fused cube
    is pinned bit-for-bit against ``portfolio_*(**apply_scenario(...))``
    looped over ``k``. Identity components pass the base values through
    untouched (including ``None``). ``nodes`` (the union of the
    portfolio's process names) and ``conditions`` (the foundry market
    conditions) are needed only when a scenario carries per-node
    capacity multipliers or scales an unspecified (``None``) capacity
    base.
    """
    out: Dict[str, object] = {}
    dm = float(scenario_set.demand_scale[k])
    out["n_chips"] = n_chips if dm == 1.0 else np.asarray(
        n_chips, dtype=float
    ) * dm

    per_node = scenario_set.capacity_nodes and bool(
        np.any(scenario_set.capacity_node_scale[k, :] != scenario_set.capacity_scale[k])
    )
    if not _scenario_has_capacity_transform(scenario_set, k):
        out["capacity"] = capacity
    elif not per_node and capacity is not None:
        cm = float(scenario_set.capacity_scale[k])
        out["capacity"] = np.asarray(capacity, dtype=float) * cm
    else:
        # Per-node multipliers (or a scaled None base) need the full
        # mapping form: every portfolio node gets base * multiplier so
        # the supply resolver sees one consistent override set.
        if not nodes:
            raise InvalidParameterError(
                f"scenario {scenario_set.names[k]!r} applies per-node "
                "capacity multipliers; pass the portfolio's node names"
            )
        mapping: Dict[str, object] = {}
        for node in nodes:
            mult = scenario_set.capacity_multiplier(k, node)
            if capacity is not None:
                mapping[node] = np.asarray(capacity, dtype=float) * mult
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
    capacity: Optional[ArrayLike],
    queue_weeks: Optional[ArrayLike],
    d0_scale: Optional[ArrayLike],
    wafer_rate_scale: Optional[ArrayLike],
) -> None:
    """Reject shapes that would break the cube's CRN contract."""
    if isinstance(capacity, Mapping):
        raise InvalidParameterError(
            "scenario kernels take a global capacity base (scalar or 1-D "
            "samples); per-node structure belongs to the scenarios"
        )
    if capacity is not None:
        _sample_array(capacity, "capacity fraction")
    if queue_weeks is not None:
        _sample_array(queue_weeks, "queue weeks", nonnegative=True)
    if d0_scale is not None:
        _sample_array(d0_scale, "defect density scale")
    if wafer_rate_scale is not None:
        _sample_array(wafer_rate_scale, "wafer rate scale")


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
        # multiplier -> (wafers, testing, yields-or-None); yields is the
        # shared profile_yields pass both tensors were derived from
        # (None on the precompiled identity entry, which never runs it).
        self._cache: Dict[
            float, Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]
        ] = {}

    def tensors(
        self, multiplier: float
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        key = float(multiplier)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        invariants = self._invariants
        if self._base is None and key == 1.0:
            trio: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]] = (
                invariants.wafers_per_chip[:, :, None],
                invariants.testing_weeks_per_chip[:, None],
                None,
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


def _evaluate_cube(
    model: TTMModel,
    invariants: PortfolioInvariants,
    scenario_set: ScenarioSet,
    n_chips: ArrayLike,
    capacity: Optional[ArrayLike],
    queue_weeks: Optional[ArrayLike],
    d0_scale: Optional[ArrayLike],
    wafer_rate_scale: Optional[ArrayLike],
    relative_step: float,
    with_cas: bool,
    pw_out: Optional[Dict[Tuple[float, float], np.ndarray]] = None,
    wafers_out: Optional[Dict[float, np.ndarray]] = None,
    yields_out: Optional[Dict[float, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(tapeout (K, D), fabrication + total (K, D, S), cas or None).

    When ``pw_out`` / ``wafers_out`` / ``yields_out`` are given, the
    kernel fills them with each (demand multiplier, D0 multiplier)
    group's ``quantities x wafers`` product and each D0 multiplier's
    wafers-per-chip and profile-yields tensors so
    :func:`scenario_cost` can reuse them (its wafer and testing terms
    start from the very same ``pow`` + multiply).
    """
    _validate_base(capacity, queue_weeks, d0_scale, wafer_rate_scale)
    if with_cas and not 0.0 < relative_step < 1.0:
        raise InvalidParameterError(
            f"relative step must be in (0, 1), got {relative_step}"
        )
    n_designs, max_nodes = invariants.node_mask.shape
    n_samples = _cube_samples(
        n_chips, capacity, queue_weeks, d0_scale, wafer_rate_scale
    )
    k_total = scenario_set.n_scenarios
    pipelined = model.schedule == "pipelined"
    nodes = invariants.nodes
    conditions = model.foundry.conditions

    tapeout_out = np.empty((k_total, n_designs))
    fabrication_out = np.empty((k_total, n_designs, n_samples))
    total_out = np.empty((k_total, n_designs, n_samples))
    cas_out = np.empty((k_total, n_designs, n_samples)) if with_cas else None

    # Scenario-invariant terms, hoisted out of the loop. ``tapeout`` and
    # ``prefix`` are the same additions the per-scenario oracle performs,
    # just computed once (identical operands -> identical bits).
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
    # operation on the same operands, so the cube stays pinned
    # bit-for-bit against the looped oracle while the allocator stops
    # paying a fresh multi-megabyte temporary (and its page-zeroing)
    # per op per scenario.
    scratch3 = np.empty((n_designs, max_nodes, n_samples))
    masked = np.empty((n_designs, max_nodes, n_samples))
    total_tmp = np.empty((n_designs, n_samples))
    supply_scratch = _SupplyScratch(
        scaled=np.empty((n_designs, max_nodes, n_samples)),
        rates=np.empty((n_designs, max_nodes, n_samples)),
        backlog=np.empty((n_designs, max_nodes, n_samples)),
        fraction=np.empty((n_designs, max_nodes, n_samples)),
    )
    # Padded/unused node slots, precomputed once: the oracle masks them
    # to -inf before every node-axis max; the fused path copies the
    # full tensor and overwrites just the inactive rows (same cells end
    # up -inf, the active cells are untouched copies).
    inactive2 = ~invariants.node_mask
    any_inactive = bool(inactive2.any())
    inactive_rows = [
        np.flatnonzero(inactive2[:, p]) for p in range(max_nodes)
    ]
    active_rows = [
        np.flatnonzero(invariants.node_mask[:, p])
        for p in range(max_nodes)
    ]
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
            idx = active_rows[p]
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
            node_plan.append(
                (sel, max_rate_p, lat_p, tap_p, tapeout_p, prefix_p)
            )

    d0_groups = _D0Groups(invariants, d0_scale)
    pw_cache: Dict[Tuple[float, float], tuple] = {}

    for k in range(k_total):
        kwargs = apply_scenario(
            scenario_set,
            k,
            n_chips=n_chips,
            capacity=capacity,
            queue_weeks=queue_weeks,
            d0_scale=d0_scale,
            wafer_rate_scale=wafer_rate_scale,
            nodes=nodes,
            conditions=conditions,
        )
        g = float(scenario_set.d0_scale[k])
        dm = float(scenario_set.demand_scale[k])
        pw_key = (dm, g)
        cached = pw_cache.get(pw_key)
        if cached is None:
            wafers, testing, _ = d0_groups.tensors(g)
            quantities_node, quantities_design = _portfolio_quantities(
                kwargs["n_chips"], n_designs
            )
            # The first multiply of ``quantities * wafers / rates`` and
            # the packaging tail; both invariant across this
            # (demand, D0) scenario group. The trailing dict lazily
            # collects per-sparse-node packaging row subsets.
            cached = (
                quantities_node * wafers,
                model.tap_latency_weeks
                + quantities_design * testing
                + quantities_design
                * invariants.assembly_weeks_per_chip[:, None],
                {},
            )
            pw_cache[pw_key] = cached
        production_load, packaging, packaging_subs = cached
        # The resolved supply lands in reusable scratch buffers (same
        # ufuncs, same operands, preallocated out= targets) and is
        # consumed fully within this iteration.
        supply = _portfolio_supply(
            model,
            invariants,
            kwargs["capacity"],
            queue_weeks=kwargs["queue_weeks"],
            d0_scale=None,
            wafer_rate_scale=kwargs["wafer_rate_scale"],
            scratch=supply_scratch,
        )
        rates = supply.rates
        np.divide(supply.backlog, rates, out=masked)  # queue drain
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
        np.add(prefix, fabrication, out=total_tmp)
        np.add(total_tmp, packaging, out=total_out[k])
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
            sel, max_rate, lat_p, tap_p, tapeout_p, prefix_p = plan
            if sel is not None:
                n_act = sel.size
                row = rates[sel, p, :]
                backlog_p = supply.backlog[sel, p, :]
                load_p = (
                    production_load[sel, p, :]
                    if production_load.ndim == 3
                    else production_load
                )
                loo_p = loo[sel, p, :]
                packaging_p = packaging_subs.get(p)
                if packaging_p is None:
                    packaging_p = (
                        packaging[sel]
                        if packaging.ndim == 2
                        else packaging
                    )
                    packaging_subs[p] = packaging_p
                step_p = step[:n_act]
                slope_p = slope[:n_act]
                eff_p = eff2[:, :n_act]
                drain_p = drain2[:, :n_act]
                pert_p = pert2[:, :n_act]
            else:
                n_act = n_designs
                row = rates[:, p, :]
                backlog_p = supply.backlog[:, p, :]
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
            # oracle takes max(loo, -inf) == loo (every active node's
            # ready time is finite), so overwriting those rows with the
            # leave-one-out max is the same bits as masking before the
            # maximum.
            np.maximum(loo_p, eff_p, out=pert_p)
            rows = inactive_rows[p]
            if sel is None and rows.size:
                pert_p[:, rows] = loo_p[rows]
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
        row_positive = np.all(
            sens > 0.0, axis=tuple(range(1, sens.ndim))
        )
        if not np.all(row_positive):
            bad = invariants.designs[int(np.argmin(row_positive))]
            raise InvalidParameterError(
                f"design {bad!r} has zero TTM sensitivity on all nodes "
                f"under scenario {scenario_set.names[k]!r}; CAS is "
                "unbounded (check the production volume is non-trivial)"
            )
        np.divide(1.0, sens, out=cas_out[k])

    if pw_out is not None:
        for key, (load, _packaging, _subs) in pw_cache.items():
            pw_out[key] = load
    if wafers_out is not None or yields_out is not None:
        for g_key, (wafers_g, _testing_g, yields_g) in (
            d0_groups._cache.items()
        ):
            if wafers_out is not None:
                wafers_out[g_key] = wafers_g
            if yields_out is not None and yields_g is not None:
                yields_out[g_key] = yields_g
    return tapeout_out, fabrication_out, total_out, cas_out


def _cube_samples(
    n_chips: ArrayLike,
    *arrays: Optional[ArrayLike],
) -> int:
    """The cube's trailing sample-axis extent."""
    extents = [np.shape(np.asarray(n_chips, dtype=float))[-1:] or (1,)]
    for value in arrays:
        if value is not None:
            extents.append(np.shape(np.asarray(value, dtype=float)) or (1,))
    return int(np.broadcast_shapes(*extents)[0])


@observed_kernel("engine.scenario_ttm", lambda r: r.total_weeks.size)
def scenario_ttm(
    model: TTMModel,
    designs: Optional[Sequence[ChipDesign]],
    n_chips: ArrayLike,
    scenarios: Union[ScenarioSet, Sequence[Scenario]],
    capacity: Optional[ArrayLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[PortfolioInvariants] = None,
) -> ScenarioTTMResult:
    """Vectorized TTM over the full scenario cube in one call.

    Slice ``k`` is pinned bit-for-bit against
    ``portfolio_ttm(**apply_scenario(scenarios, k, ...))``.
    """
    invariants = _resolve_invariants(model, designs, invariants)
    scenario_set = compile_scenarios(scenarios)
    tapeout, fabrication, total, _ = _evaluate_cube(
        model,
        invariants,
        scenario_set,
        n_chips,
        capacity,
        queue_weeks,
        d0_scale,
        wafer_rate_scale,
        DEFAULT_RELATIVE_STEP,
        with_cas=False,
    )
    return ScenarioTTMResult(
        scenarios=scenario_set.names,
        designs=invariants.designs,
        schedule=model.schedule,
        tapeout_weeks=tapeout,
        fabrication_weeks=fabrication,
        total_weeks=total,
    )


@observed_kernel("engine.scenario_cas", lambda r: r.cas.size)
def scenario_cas(
    model: TTMModel,
    designs: Optional[Sequence[ChipDesign]],
    n_chips: ArrayLike,
    scenarios: Union[ScenarioSet, Sequence[Scenario]],
    capacity: Optional[ArrayLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[PortfolioInvariants] = None,
) -> ScenarioCASResult:
    """Vectorized CAS over the full scenario cube in one call."""
    invariants = _resolve_invariants(model, designs, invariants)
    scenario_set = compile_scenarios(scenarios)
    _, _, _, cas = _evaluate_cube(
        model,
        invariants,
        scenario_set,
        n_chips,
        capacity,
        queue_weeks,
        d0_scale,
        wafer_rate_scale,
        relative_step,
        with_cas=True,
    )
    return ScenarioCASResult(
        scenarios=scenario_set.names,
        designs=invariants.designs,
        processes=invariants.processes,
        cas=cas,
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
    _production_load: Optional[
        Mapping[Tuple[float, float], np.ndarray]
    ] = None,
    _wafers: Optional[Mapping[float, np.ndarray]] = None,
    _yields: Optional[Mapping[float, np.ndarray]] = None,
) -> ScenarioCostResult:
    """Chip-creation cost over the cube, deduplicated per (demand, D0).

    Cost depends only on the demand and defect-density transforms, so
    scenarios sharing that pair share one bit-identical
    :func:`~repro.engine.portfolio.portfolio_cost` evaluation.
    ``_production_load`` / ``_wafers`` / ``_yields`` let
    :func:`scenario_evaluate` lend the TTM cube's per-group
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
    if d0_scale is not None:
        _sample_array(d0_scale, "defect density scale")
    n_designs = invariants.n_designs
    n_samples = _cube_samples(n_chips, d0_scale)
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
    g_tensors: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
    dm_tensors: Dict[
        float, Tuple[np.ndarray, np.ndarray, np.ndarray]
    ] = {}
    for k in range(k_total):
        dm = float(scenario_set.demand_scale[k])
        g = float(scenario_set.d0_scale[k])
        hit = cache.get((dm, g))
        if hit is None:
            chips = n_chips if dm == 1.0 else np.asarray(
                n_chips, dtype=float
            ) * dm
            if g == 1.0:
                scale = d0_scale
            elif d0_scale is None:
                scale = g
            else:
                scale = np.asarray(d0_scale, dtype=float) * g
            pair = g_tensors.get(g)
            if pair is None:
                if scale is None:
                    scale_array: np.ndarray = np.asarray(1.0, dtype=float)
                else:
                    scale_array = _sample_array(scale, "defect density scale")
                yields = _yields.get(g) if _yields is not None else None
                if yields is None:
                    yields = invariants.profile_yields(scale_array)
                wafers = _wafers.get(g) if _wafers is not None else None
                if wafers is None:
                    wafers = invariants.wafers_per_chip_at(
                        scale_array, yields=yields
                    )
                pair = (wafers, yields)
                g_tensors[g] = pair
            trio = dm_tensors.get(dm)
            if trio is None:
                quantities_node, quantities_design = (
                    _portfolio_quantities(chips, n_designs)
                )
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
                pair[0],
                pair[1],
                production_load=(
                    _production_load.get((dm, g))
                    if _production_load is not None
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
    capacity: Optional[ArrayLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    invariants: Optional[PortfolioInvariants] = None,
) -> ScenarioCubeResult:
    """TTM + CAS (+ cost when ``cost_model`` is given) in one fused pass.

    TTM and CAS share one resolved supply and one baseline pass per
    scenario — the individual ``scenario_ttm``/``scenario_cas`` entry
    points stay bit-identical but each re-resolve the supply.
    """
    invariants = _resolve_invariants(model, designs, invariants)
    scenario_set = compile_scenarios(scenarios)
    production_loads: Dict[Tuple[float, float], np.ndarray] = {}
    wafer_tensors: Dict[float, np.ndarray] = {}
    yield_tensors: Dict[float, np.ndarray] = {}
    tapeout, fabrication, total, cas = _evaluate_cube(
        model,
        invariants,
        scenario_set,
        n_chips,
        capacity,
        queue_weeks,
        d0_scale,
        wafer_rate_scale,
        relative_step,
        with_cas=True,
        pw_out=production_loads,
        wafers_out=wafer_tensors,
        yields_out=yield_tensors,
    )
    ttm = ScenarioTTMResult(
        scenarios=scenario_set.names,
        designs=invariants.designs,
        schedule=model.schedule,
        tapeout_weeks=tapeout,
        fabrication_weeks=fabrication,
        total_weeks=total,
    )
    cas_result = ScenarioCASResult(
        scenarios=scenario_set.names,
        designs=invariants.designs,
        processes=invariants.processes,
        cas=cas,
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
            _production_load=production_loads,
            _wafers=wafer_tensors,
            _yields=yield_tensors,
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
    "scenario_cas",
    "scenario_cost",
    "scenario_evaluate",
    "scenario_ttm",
]
