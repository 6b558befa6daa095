"""Per-(design, technology) invariants for the batch evaluation engine.

Every point of a capacity sweep, a TTM-vs-quantity matrix, or a Sobol
sample re-derives the same quantities from the design and the technology
database: per-node tapeout calendar weeks (Eq. 2), wafers needed per final
chip (Eqs. 5-6, folding in dies-per-wafer and die yield), and the
per-chip packaging coefficients (Eq. 7). None of these depend on market
conditions or on the number of chips, so the engine computes them once per
(design, technology) pair and caches the result.

Caching contract
----------------
Entries are keyed by the *identity* of the ``TechnologyDatabase`` and
``ChipDesign`` objects plus the scalar model knobs (``engineers``,
``alpha``, ``edge_corrected``, ``block_parallel``). Both classes are
immutable by construction, so identity keying is sound: to invalidate,
build a new database (``TechnologyDatabase.override``) or a new design
(``dataclasses.replace`` / the library constructors) instead of mutating
-- which is the only supported workflow anyway. The cache holds strong
references and is LRU-bounded (:data:`CACHE_MAX_ENTRIES`);
:func:`clear_invariant_cache` empties it explicitly.

Market-dependent quantities (queue backlogs, capacity fractions) are
deliberately *not* cached here -- they are cheap per-sweep scalars and the
whole point of a sweep is that they vary.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

from ..design.chip import ChipDesign
from ..obs.instrument import cache_counters
from ..technology.database import TechnologyDatabase
from ..technology.yield_model import DEFAULT_ALPHA
from ..technology.wafer import dies_per_wafer, dies_per_wafer_simple
from ..units import mm2_to_cm2
from ..ttm.tapeout import (
    die_tapeout_calendar_weeks,
    sequential_tapeout_calendar_weeks,
)

#: Upper bound on cached (design, technology) entries.
CACHE_MAX_ENTRIES = 256

T = TypeVar("T")


@dataclass(frozen=True)
class DieYieldProfile:
    """Everything needed to re-derive one die type's yield-dependent terms.

    The cached :class:`DesignInvariants` scalars fold die yield in at the
    database's nominal defect densities. Monte Carlo studies perturb D0,
    so each die also records how its yield responds: ``mean_defects`` is
    the Eq. 6 ``A * D0`` product at the nominal density — scaling D0 by
    ``s`` scales it to ``mean_defects * s``. Fixed-yield dies (passive
    interposers) ignore D0 entirely; salvage dies re-evaluate the
    uncore/unit split.

    Attributes
    ----------
    process_index:
        Index into ``DesignInvariants.processes`` for this die's node.
    count:
        Dies of this type per final chip.
    ntt:
        Total transistors on one die (testing flows through the testers).
    area_mm2:
        Die area on its node (packaging/assembly cost driver).
    gross_per_wafer:
        Gross dies per wafer (D0-independent geometry).
    testing_effort:
        The node's E_testing (weeks per transistor tested).
    mean_defects:
        ``A_cm2 * D0`` at nominal density (Eq. 6 exponent base).
    fixed_yield:
        Yield override (e.g. 0.9999 interposer); ``None`` uses Eq. 6.
    salvage_uncore_defects / salvage_unit_defects:
        Nominal ``A * D0`` of the uncore and of one salvage unit, for
        dies with a core-salvage spec (``None`` otherwise).
    salvage_n_units / salvage_required_units:
        The salvage spec's unit counts (0 when salvage is absent).
    """

    process_index: int
    count: float
    ntt: float
    area_mm2: float
    gross_per_wafer: float
    testing_effort: float
    mean_defects: float
    fixed_yield: Optional[float] = None
    salvage_uncore_defects: Optional[float] = None
    salvage_unit_defects: Optional[float] = None
    salvage_n_units: int = 0
    salvage_required_units: int = 0

    def yield_at(self, d0_scale: np.ndarray, alpha: float) -> np.ndarray:
        """Vectorized sellable-die yield with D0 scaled by ``d0_scale``."""
        scale = np.asarray(d0_scale, dtype=float)
        if self.fixed_yield is not None:
            return np.broadcast_to(
                np.asarray(self.fixed_yield, dtype=float), scale.shape
            )
        if self.salvage_uncore_defects is not None:
            uncore = (
                1.0 + self.salvage_uncore_defects * scale / alpha
            ) ** (-alpha)
            unit = (
                1.0 + self.salvage_unit_defects * scale / alpha
            ) ** (-alpha)
            # Vectorized twin of ``salvage.binomial_tail`` (that one
            # validates a scalar p), including its clamp to 1.0.
            tail = sum(
                float(math.comb(self.salvage_n_units, k))
                * unit ** k
                * (1.0 - unit) ** (self.salvage_n_units - k)
                for k in range(
                    self.salvage_required_units, self.salvage_n_units + 1
                )
            )
            return uncore * np.minimum(tail, 1.0)
        return (1.0 + self.mean_defects * scale / alpha) ** (-alpha)


@dataclass(frozen=True)
class DesignInvariants:
    """Everything about a (design, technology) pair that a sweep reuses.

    Per-process arrays are aligned with ``processes`` (the design's nodes
    in first-appearance order). All arrays are read-only float64.

    Attributes
    ----------
    processes:
        Node names the design fabricates on.
    tapeout_weeks:
        Per-node calendar tapeout weeks (slowest die per node, Eq. 2).
    sequential_tapeout_weeks:
        The strict Eq. 1/2 serialized tapeout time (``schedule="sequential"``).
    max_rate:
        Per-node maximum wafer rate, wafers/week.
    fab_latency_weeks:
        Per-node L_fab.
    wafers_per_chip:
        Per-node wafers that must be ordered per final chip (sum over the
        node's die types of ``count / good_dies_per_wafer``); multiply by
        ``n_chips`` to get N_W (Eq. 5).
    testing_weeks_per_chip:
        Eq. 7 testing term per final chip (sum over dies of
        ``count / yield * NTT * E_testing``).
    assembly_weeks_per_chip:
        Eq. 7 assembly term per final chip (sum over dies of
        ``count * area * E_package``).
    design_weeks:
        The design's supply-independent design+implementation constant.
    alpha:
        The yield-model cluster parameter the cached terms were derived
        with (needed to re-derive them under a perturbed D0).
    die_profiles:
        Per-die-type :class:`DieYieldProfile` records, for workloads that
        sample defect density (the cached ``wafers_per_chip`` /
        ``testing_weeks_per_chip`` terms assume nominal D0).
    """

    processes: Tuple[str, ...]
    tapeout_weeks: np.ndarray
    sequential_tapeout_weeks: float
    max_rate: np.ndarray
    fab_latency_weeks: np.ndarray
    wafers_per_chip: np.ndarray
    testing_weeks_per_chip: float
    assembly_weeks_per_chip: float
    design_weeks: float
    alpha: float = DEFAULT_ALPHA
    die_profiles: Tuple[DieYieldProfile, ...] = ()

    def wafers_per_chip_at(self, d0_scale: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Per-process wafers per final chip with D0 scaled per sample.

        Returns one array per entry of ``processes``, each broadcast to
        ``d0_scale``'s shape. ``d0_scale=1`` reproduces the cached
        ``wafers_per_chip`` scalars to floating-point round-off.
        """
        scale = np.asarray(d0_scale, dtype=float)
        totals = [np.zeros(scale.shape) for _ in self.processes]
        for profile in self.die_profiles:
            good = profile.gross_per_wafer * profile.yield_at(scale, self.alpha)
            totals[profile.process_index] = (
                totals[profile.process_index] + profile.count / good
            )
        return tuple(totals)

    def testing_weeks_per_chip_at(self, d0_scale: np.ndarray) -> np.ndarray:
        """Eq. 7 testing term per chip with D0 scaled per sample."""
        scale = np.asarray(d0_scale, dtype=float)
        total = np.zeros(scale.shape)
        for profile in self.die_profiles:
            die_yield = profile.yield_at(scale, self.alpha)
            total = total + (
                profile.count / die_yield * profile.ntt * profile.testing_effort
            )
        return total


class _IdKey:
    """Hash-by-identity wrapper pinning a strong reference.

    Holding the object itself inside the cache key keeps it alive, which
    guarantees its ``id()`` is never recycled while the entry exists.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: object) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _IdKey) and self.obj is other.obj


#: Shared LRU over engine invariants. Holds both per-design
#: :class:`DesignInvariants` entries and the portfolio-compiler entries
#: from :mod:`repro.engine.portfolio` (fingerprint-keyed tuples); both go
#: through :func:`cached_invariants` so eviction, statistics and the
#: thread-safety lock are one mechanism.
_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_CACHE_LOCK = threading.Lock()

#: The public hit/miss/eviction counters (plus the entries gauge) on the
#: process-wide :class:`~repro.obs.metrics.MetricsRegistry` — what used
#: to be private module ints is now readable from any metrics dump.
_HITS, _MISSES, _EVICTIONS, _ENTRIES = cache_counters()


def clear_invariant_cache() -> None:
    """Drop every cached entry and zero *all* statistics.

    Resets hits, misses, **and** evictions — an eviction count that
    survived a clear would misattribute old churn to the fresh cache.
    """
    with _CACHE_LOCK:
        _CACHE.clear()
        _HITS.reset()
        _MISSES.reset()
        _EVICTIONS.reset()
        _ENTRIES.set(0)


def invariant_cache_info() -> Dict[str, int]:
    """Cache statistics as ``{"hits", "misses", "evictions", "entries"}``.

    Reads the public :mod:`repro.obs.metrics` counters, so this view and
    a Prometheus/JSON metrics dump can never disagree.
    """
    with _CACHE_LOCK:
        return {
            "hits": int(_HITS.value()),
            "misses": int(_MISSES.value()),
            "evictions": int(_EVICTIONS.value()),
            "entries": len(_CACHE),
        }


def cached_invariants(key: tuple, compute: "Callable[[], T]") -> "T":
    """Serve ``key`` from the shared LRU, computing (outside the lock) on miss.

    Both halves of the critical section are guarded by the module lock,
    so hit/miss/eviction counters and eviction stay correct under the
    thread executor of :func:`~repro.engine.parallel.parallel_map`. Two
    threads racing on the same cold key may both compute; each call
    still accounts exactly one hit or one miss, and the last value wins.
    """
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
            _HITS._inc_key(())
            return cached  # type: ignore[return-value]
    value = compute()
    with _CACHE_LOCK:
        _MISSES._inc_key(())
        _CACHE[key] = value
        _CACHE.move_to_end(key)
        while len(_CACHE) > CACHE_MAX_ENTRIES:
            _CACHE.popitem(last=False)
            _EVICTIONS._inc_key(())
        _ENTRIES.set(len(_CACHE))
    return value


def compute_invariants(
    design: ChipDesign,
    technology: TechnologyDatabase,
    engineers: int,
    alpha: float = DEFAULT_ALPHA,
    edge_corrected: bool = False,
    block_parallel: bool = False,
) -> DesignInvariants:
    """Derive the invariants from scratch (no caching).

    Raises the same errors the scalar model would: unknown nodes raise
    :class:`~repro.errors.UnknownNodeError`, out-of-production nodes raise
    :class:`~repro.errors.NodeUnavailableError`.
    """
    processes = design.processes
    for process in processes:
        technology.require_production(process)

    process_index = {name: i for i, name in enumerate(processes)}
    tapeout: Dict[str, float] = {}
    wafers_per_chip: Dict[str, float] = {}
    testing = 0.0
    assembly = 0.0
    profiles = []
    for die in design.dies:
        node = technology[die.process]
        weeks = die_tapeout_calendar_weeks(
            die, node, engineers, block_parallel=block_parallel
        )
        tapeout[die.process] = max(tapeout.get(die.process, 0.0), weeks)
        area = die.area_on(node)
        gross = (
            dies_per_wafer(area, node.wafer_diameter_mm)
            if edge_corrected
            else dies_per_wafer_simple(area, node.wafer_diameter_mm)
        )
        good = gross * die.yield_on(node, alpha=alpha)
        wafers_per_chip[die.process] = (
            wafers_per_chip.get(die.process, 0.0) + die.count / good
        )
        testing += die.count / die.yield_on(node, alpha=alpha) * die.ntt * (
            node.testing_effort
        )
        assembly += die.count * area * node.packaging_effort
        salvage_uncore = salvage_unit = None
        salvage_n = salvage_required = 0
        if die.salvage is not None:
            spec = die.salvage
            uncore_area = area * (1.0 - spec.unit_area_fraction)
            unit_area = area * spec.unit_area_fraction / spec.n_units
            salvage_uncore = mm2_to_cm2(uncore_area) * node.defect_density_per_cm2
            salvage_unit = mm2_to_cm2(unit_area) * node.defect_density_per_cm2
            salvage_n = spec.n_units
            salvage_required = spec.required_units
        profiles.append(
            DieYieldProfile(
                process_index=process_index[die.process],
                count=float(die.count),
                ntt=die.ntt,
                area_mm2=area,
                gross_per_wafer=gross,
                testing_effort=node.testing_effort,
                mean_defects=mm2_to_cm2(area) * node.defect_density_per_cm2,
                fixed_yield=die.yield_override,
                salvage_uncore_defects=salvage_uncore,
                salvage_unit_defects=salvage_unit,
                salvage_n_units=salvage_n,
                salvage_required_units=salvage_required,
            )
        )

    def _readonly(values) -> np.ndarray:
        array = np.array(values, dtype=float)
        array.flags.writeable = False
        return array

    return DesignInvariants(
        processes=processes,
        tapeout_weeks=_readonly([tapeout.get(p, 0.0) for p in processes]),
        sequential_tapeout_weeks=sequential_tapeout_calendar_weeks(
            design, technology, engineers
        ),
        max_rate=_readonly(
            [technology[p].max_wafer_rate_per_week for p in processes]
        ),
        fab_latency_weeks=_readonly(
            [technology[p].fab_latency_weeks for p in processes]
        ),
        wafers_per_chip=_readonly([wafers_per_chip[p] for p in processes]),
        testing_weeks_per_chip=testing,
        assembly_weeks_per_chip=assembly,
        design_weeks=design.design_weeks,
        alpha=alpha,
        die_profiles=tuple(profiles),
    )


def design_invariants(
    design: ChipDesign,
    technology: TechnologyDatabase,
    engineers: int,
    alpha: float = DEFAULT_ALPHA,
    edge_corrected: bool = False,
    block_parallel: bool = False,
) -> DesignInvariants:
    """Cached wrapper around :func:`compute_invariants`.

    See the module docstring for the caching-invalidation contract.
    """
    key = (
        _IdKey(technology),
        _IdKey(design),
        engineers,
        alpha,
        edge_corrected,
        block_parallel,
    )
    return cached_invariants(
        key,
        lambda: compute_invariants(
            design,
            technology,
            engineers,
            alpha=alpha,
            edge_corrected=edge_corrected,
            block_parallel=block_parallel,
        ),
    )


__all__ = [
    "CACHE_MAX_ENTRIES",
    "DesignInvariants",
    "DieYieldProfile",
    "cached_invariants",
    "clear_invariant_cache",
    "compute_invariants",
    "design_invariants",
    "invariant_cache_info",
]
