"""The compiled design table and the one kernel family that reads it.

:func:`compile_portfolio` turns a tuple of designs into one
:class:`PortfolioInvariants` table. A single Python pass gathers one row
per (design, die); NumPy then derives everything the paper's Eqs. 2-7
need over all rows at once: die area, gross dies per wafer, die yield
(Eq. 6, a fixed override, or core salvage), wafers per chip (Eq. 5), the
Eq. 7 testing and assembly terms, per-node tapeout (Eq. 2) and the NRE
columns. Per-node columns are padded to the widest design's node count
and masked by ``node_mask``.

:func:`portfolio_ttm` / :func:`portfolio_cas` / :func:`portfolio_cost`
evaluate the full ``(n_designs, n_samples)`` tensor in one broadcasted
pass. TTM and CAS have one body, the scenario cube's kernel in
:mod:`repro.engine.scenario`: these two run it on a set holding one
identity scenario and return slab 0. The single-design ``batch_*``
kernels in :mod:`repro.engine.batch` are these kernels run on a
1-design portfolio, and the scalar model (``TTMModel``,
``chip_agility_score``, ``CostModel``) is the oracle they are all tested
against.

Common random numbers
---------------------
The supply-side sample arrays (``capacity``, ``queue_weeks``,
``d0_scale``, ``wafer_rate_scale``) are *shared* across the design axis:
sample ``s`` applies the same drawn world to every design, which is the
common-random-numbers design that makes portfolio deltas (A minus B per
sample) low-variance. They must therefore be scalars or 1-D sample
vectors; only ``n_chips`` may carry a per-design leading axis
``(n_designs, n_samples)`` (products ship different volumes in the same
world). Padded node slots hold neutral values (rate 1, zero wafers, zero
latency) and are masked out of every reduction, so row ``i`` depends on
design ``i`` alone: reordering or subsetting the design tuple reorders
the rows bit for bit.

Each design row may read its own technology database: an ensemble of
calibration worlds compiles as the rows of one table, and every kernel
call then scores all worlds at once (the kernels read node parameters
only from the table; market conditions come from the model).

Compiled portfolios are cached in the shared invariant LRU
(:func:`~repro.engine.invariants.cached_invariants`) under a fingerprint
key — the ``id()`` of the technology database(s) and of every design
plus the scalar model knobs, with the objects themselves pinned in the
entry — so repeated evaluations across a sweep or served requests skip
recompilation entirely.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..agility.derivative import DEFAULT_RELATIVE_STEP
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..errors import InvalidParameterError
from ..obs.instrument import observed_kernel
from ..technology.database import TechnologyDatabase
from ..technology.yield_model import DEFAULT_ALPHA
from ..ttm.model import DEFAULT_ENGINEERS, TTMModel
from ..units import mm2_to_cm2
from .invariants import cached_invariants

ArrayLike = Union[float, Sequence[float], np.ndarray]

#: ``capacity`` argument: global scalar/sample-vector or per-node mapping.
CapacityLike = Union[ArrayLike, Mapping[str, ArrayLike]]

#: Raw wafers/week^2 per normalized CAS unit (mirrors ``repro.agility.cas``).
_WAFERS_PER_NORMALIZED_UNIT = 1000.0


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _as_positive_array(
    values: ArrayLike, what: str, nonnegative: bool = False
) -> np.ndarray:
    """``values`` as floats; empty or non-positive input (negative input
    when ``nonnegative``) raises, naming ``what`` and the first bad value."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InvalidParameterError(f"{what} must be non-empty")
    flat = array.reshape(-1)
    valid = flat >= 0.0 if nonnegative else flat > 0.0
    if not np.all(valid):
        bound = ">= 0" if nonnegative else "positive"
        raise InvalidParameterError(
            f"{what} must be {bound}, got {float(flat[~valid][0])}"
        )
    return array


#: Per rank, the rows of that rank's profiles and their target cells.
_Ranks = Tuple[Tuple[Union[int, slice, np.ndarray], tuple], ...]


def _scatter_ranks(
    target: Tuple[np.ndarray, ...], shape: Tuple[int, ...], n_cells: int
) -> _Ranks:
    """Group profiles by rank for :func:`_scatter_in_order`.

    ``target`` indexes each profile's cell in an array of ``shape`` (one
    index array per axis), and ``n_cells`` counts the distinct cells it
    hits. A profile's rank is the number of earlier profiles with the
    same cell, read off a stable sort by cell, so no cell appears twice
    within a rank; when every profile has a cell of its own, there is
    one rank and no sort.
    """
    n_profiles = target[0].size
    if n_profiles == n_cells:
        groups = [np.arange(n_profiles)]
    else:
        cell = np.ravel_multi_index(target, shape)
        order = np.argsort(cell, kind="stable")
        ordered = cell[order]
        rank = np.arange(n_profiles) - np.searchsorted(ordered, ordered)
        groups = [order[rank == r] for r in range(int(rank.max()) + 1)]
    return tuple(_rank_index(rows, target, n_profiles) for rows in groups)


def _rank_index(
    rows: np.ndarray, target: Tuple[np.ndarray, ...], n_profiles: int
) -> Tuple[Union[int, slice, np.ndarray], tuple]:
    """One rank's ``(rows, cells)`` index pair.

    A lone profile is indexed by plain integers, so its add updates a
    view in place; all profiles are indexed by a slice, so nothing is
    gathered from the contributions.
    """
    if rows.size == 1:
        row = int(rows[0])
        return row, tuple(int(axis[row]) for axis in target)
    if rows.size == n_profiles:
        return slice(None), target
    return rows, tuple(axis[rows] for axis in target)


def _scatter_in_order(
    out: np.ndarray, ranks: _Ranks, contribution: np.ndarray
) -> np.ndarray:
    """``np.add.at(out, target, contribution)``, bit for bit, fast.

    ``np.add.at`` adds ``contribution[i]`` into its cell for ``i`` in
    profile order through a slow element-general loop. Here one
    fancy-index add per rank does the same: cells are unique within a
    rank, and ranks run in profile order, so every cell receives the
    same additions on the same operands in the same order.
    """
    for rows, cells in ranks:
        out[cells] += contribution[rows]
    return out


@dataclass(frozen=True)
class PortfolioInvariants:
    """The compiled design table: per-design, per-node and per-die columns.

    Per-node columns have shape ``(n_designs, max_nodes)``, padded past
    each design's node count with neutral values (``max_rate`` 1.0,
    everything else 0.0) and masked by ``node_mask``; ``slot_node``
    indexes each slot into ``nodes``, the portfolio's distinct node names
    in first-appearance order (0 in padded slots). Per-design columns
    have shape ``(n_designs,)``. The ``profile_*`` columns hold one row
    per die type across the whole portfolio, in each design's die order,
    indexed by ``profile_design`` / ``profile_node``, so the D0-dependent
    terms re-derive for every (design, sample) cell in one vectorized
    pass. ``profile_fixed_yield`` is NaN except on fixed-yield dies
    (passive interposers); ``profile_salvage_units`` is 0 except on
    core-salvage dies, whose uncore and per-unit Eq. 6 exponents sit in
    ``profile_uncore_defects`` / ``profile_unit_defects``.

    The nominal ``wafers_per_chip`` and ``testing_weeks_per_chip``
    columns are :meth:`wafers_per_chip_at` and
    :meth:`testing_weeks_per_chip_at` at D0 scale 1, bit for bit, and
    ``profile_nominal_yields`` is the ``(n_profiles, 1)``
    :meth:`profile_yields` pass they were derived from.
    ``slot_ranks`` and ``design_ranks`` split the profiles by their
    (design, node) slot and by their design for :func:`_scatter_in_order`.
    """

    designs: Tuple[str, ...]
    processes: Tuple[Tuple[str, ...], ...]
    nodes: Tuple[str, ...]
    node_mask: np.ndarray
    slot_node: np.ndarray
    tapeout_weeks: np.ndarray
    max_rate: np.ndarray
    fab_latency_weeks: np.ndarray
    wafer_cost_usd: np.ndarray
    tapeout_effort_weeks: np.ndarray
    tapeout_fixed_usd: np.ndarray
    mask_set_usd: np.ndarray
    sequential_tapeout_weeks: np.ndarray
    max_tapeout_weeks: np.ndarray
    assembly_weeks_per_chip: np.ndarray
    design_weeks: np.ndarray
    alpha: float
    profile_design: np.ndarray
    profile_node: np.ndarray
    profile_count: np.ndarray
    profile_ntt: np.ndarray
    profile_area_mm2: np.ndarray
    profile_gross: np.ndarray
    profile_testing_effort: np.ndarray
    profile_mean_defects: np.ndarray
    profile_fixed_yield: np.ndarray
    profile_salvage_units: np.ndarray
    profile_salvage_required: np.ndarray
    profile_uncore_defects: np.ndarray
    profile_unit_defects: np.ndarray
    slot_ranks: _Ranks = field(init=False, repr=False)
    design_ranks: _Ranks = field(init=False, repr=False)
    profile_nominal_yields: np.ndarray = field(init=False)
    wafers_per_chip: np.ndarray = field(init=False)
    testing_weeks_per_chip: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # ``node_mask`` marks exactly the slots the profiles fill, and
        # every design has at least one die.
        object.__setattr__(
            self,
            "slot_ranks",
            _scatter_ranks(
                (self.profile_design, self.profile_node),
                self.node_mask.shape,
                int(np.count_nonzero(self.node_mask)),
            ),
        )
        object.__setattr__(
            self,
            "design_ranks",
            _scatter_ranks(
                (self.profile_design,), (self.n_designs,), self.n_designs
            ),
        )
        yields = self.profile_yields(1.0)
        wafers = self.wafers_per_chip_at(1.0, yields)[:, :, 0]
        testing = self.testing_weeks_per_chip_at(1.0, yields)[:, 0]
        object.__setattr__(self, "profile_nominal_yields", _readonly(yields))
        object.__setattr__(self, "wafers_per_chip", _readonly(wafers))
        object.__setattr__(self, "testing_weeks_per_chip", _readonly(testing))

    @property
    def n_designs(self) -> int:
        """Number of stacked designs (the tensor's leading axis)."""
        return len(self.designs)

    @property
    def max_nodes(self) -> int:
        """Padded node-axis width (widest design's node count)."""
        return int(self.node_mask.shape[1])

    def profile_yields(self, d0_scale: ArrayLike) -> np.ndarray:
        """Per-die-type sellable yield, shape ``(n_profiles, n_samples)``.

        Eq. 6 for every row in one vectorized power, then the fixed
        overrides, then the core-salvage rows (a handful at most), each
        of which re-evaluates its uncore/unit split.
        """
        scale = np.atleast_1d(np.asarray(d0_scale, dtype=float))
        alpha = self.alpha
        yields = (
            1.0 + self.profile_mean_defects[:, None] * scale / alpha
        ) ** (-alpha)
        fixed = ~np.isnan(self.profile_fixed_yield)
        if fixed.any():
            yields[fixed] = self.profile_fixed_yield[fixed, None]
        for row in np.flatnonzero(self.profile_salvage_units):
            n_units = int(self.profile_salvage_units[row])
            uncore = (
                1.0 + self.profile_uncore_defects[row] * scale / alpha
            ) ** (-alpha)
            unit = (
                1.0 + self.profile_unit_defects[row] * scale / alpha
            ) ** (-alpha)
            # Vectorized twin of ``salvage.binomial_tail`` (that one
            # validates a scalar p), including its clamp to 1.0.
            tail = sum(
                float(math.comb(n_units, k))
                * unit ** k
                * (1.0 - unit) ** (n_units - k)
                for k in range(
                    int(self.profile_salvage_required[row]), n_units + 1
                )
            )
            yields[row] = uncore * np.minimum(tail, 1.0)
        return yields

    def wafers_per_chip_at(
        self,
        d0_scale: ArrayLike,
        yields: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Wafers per final chip with D0 scaled per sample.

        Returns ``(n_designs, max_nodes, n_samples)``; padded node slots
        stay 0. Contributions accumulate in global profile order, which
        per (design, node) cell is each design's own die order — the
        order of the scalar ``wafer_demand_by_node`` sum. ``yields``,
        when given, must be ``profile_yields(d0_scale)`` (callers
        evaluating several yield-dependent tensors share one ``pow``
        pass; the result is bit-identical either way).
        """
        scale = np.atleast_1d(np.asarray(d0_scale, dtype=float))
        if yields is None:
            yields = self.profile_yields(scale)
        out = np.zeros((self.n_designs, self.max_nodes, scale.shape[0]))
        contribution = self.profile_count[:, None] / (
            self.profile_gross[:, None] * yields
        )
        return _scatter_in_order(out, self.slot_ranks, contribution)

    def testing_weeks_per_chip_at(
        self,
        d0_scale: ArrayLike,
        yields: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Eq. 7 testing term per chip, shape ``(n_designs, n_samples)``.

        ``yields`` has the same precomputed-``profile_yields`` contract
        as :meth:`wafers_per_chip_at`.
        """
        scale = np.atleast_1d(np.asarray(d0_scale, dtype=float))
        if yields is None:
            yields = self.profile_yields(scale)
        out = np.zeros((self.n_designs, scale.shape[0]))
        contribution = (
            self.profile_count[:, None]
            / yields
            * self.profile_ntt[:, None]
            * self.profile_testing_effort[:, None]
        )
        return _scatter_in_order(out, self.design_ranks, contribution)


#: Per-node parameters the table reads, in :func:`_compile`'s column order.
_NODE_FIELDS = (
    "density_transistors_per_mm2",
    "defect_density_per_cm2",
    "wafer_diameter_mm",
    "tapeout_effort",
    "testing_effort",
    "packaging_effort",
    "max_wafer_rate_per_week",
    "fab_latency_weeks",
    "wafer_cost_usd",
    "tapeout_fixed_cost_usd",
    "mask_set_cost_usd",
)
#: A node's ``_NODE_FIELDS`` values as one tuple.
_read_node_fields = operator.attrgetter(*_NODE_FIELDS)


#: ``technology`` argument: one database, or one database per design.
TechnologyLike = Union[TechnologyDatabase, Sequence[TechnologyDatabase]]


def _first_appearance(items: Sequence) -> Tuple[tuple, List[int]]:
    """The distinct objects (by identity) in first-appearance order, and
    each item's index into them."""
    ids = list(map(id, items))
    first = dict(zip(ids, items))
    position = dict(zip(first, range(len(first))))
    return tuple(first.values()), list(map(position.__getitem__, ids))


def _technology_rows(
    technology: TechnologyLike, n_designs: int
) -> Tuple[Tuple[TechnologyDatabase, ...], np.ndarray]:
    """The distinct databases, and each design's index into them.

    One database is the one-entry case: every design reads entry 0.
    """
    if isinstance(technology, TechnologyDatabase):
        return (technology,), np.zeros(n_designs, dtype=np.intp)
    databases = tuple(technology)
    if len(databases) != n_designs:
        raise InvalidParameterError(
            f"need one technology database per design; got "
            f"{len(databases)} for {n_designs} designs"
        )
    distinct, index = _first_appearance(databases)
    return distinct, np.array(index, dtype=np.intp)


def _compile(
    designs: Tuple[ChipDesign, ...],
    technology: TechnologyLike,
    engineers: int,
    alpha: float,
    edge_corrected: bool,
    block_parallel: bool,
) -> PortfolioInvariants:
    """Gather one row per (design, die), then derive every column in NumPy.

    Each distinct design object's die rows are gathered once and repeated
    for every design that holds it. Each (database, node) pair the rows
    use is checked and read once into one ``(field, database x node)``
    parameter table; the per-row columns read it at ``row_pair`` and the
    per-slot columns at ``database_block[:, None] + slot_node``.

    Each expression mirrors its scalar model function term for term
    (``Die.area_on``, ``dies_per_wafer[_simple]``, ``Die.yield_on``,
    ``die_tapeout_calendar_weeks``, ``packaging_breakdown``,
    ``design_nre``), and raises the same errors: unknown nodes raise
    :class:`~repro.errors.UnknownNodeError`, out-of-production nodes
    :class:`~repro.errors.NodeUnavailableError`.
    """
    if engineers <= 0:
        raise InvalidParameterError(
            f"team size must be positive, got {engineers}"
        )
    databases, design_database = _technology_rows(technology, len(designs))
    distinct, design_distinct = _first_appearance(designs)
    nodes: Dict[str, int] = {}
    distinct_processes = []
    rows = []
    for u, design in enumerate(distinct):
        slots: Dict[str, int] = {}
        for die in design.dies:
            salvage = die.salvage
            rows.append((
                u,
                slots.setdefault(die.process, len(slots)),
                nodes.setdefault(die.process, len(nodes)),
                0 if salvage is None else salvage.n_units,
                0 if salvage is None else salvage.required_units,
                die.count,
                *die.transistor_totals(),  # ntt, nut, parallel_nut
                math.nan if die.area_mm2 is None else die.area_mm2,
                die.min_area_mm2,
                math.nan if die.yield_override is None else die.yield_override,
                0.0 if salvage is None else salvage.unit_area_fraction,
            ))
        distinct_processes.append(tuple(slots))
    # Field-major, so every per-die column below is a contiguous row.
    columns = np.array(list(zip(*rows)), dtype=float)
    processes = tuple(distinct_processes)
    if len(distinct) < len(designs):
        # Repeat each distinct design's rows for every design holding it.
        processes = tuple(distinct_processes[u] for u in design_distinct)
        distinct_of = np.array(design_distinct, dtype=np.intp)
        dies = np.bincount(columns[0].astype(np.intp), minlength=len(distinct))
        n_dies = dies[distinct_of]
        columns = columns[
            :,
            np.arange(n_dies.sum())
            + np.repeat(
                (np.cumsum(dies) - dies)[distinct_of]
                - (np.cumsum(n_dies) - n_dies),
                n_dies,
            ),
        ]
        columns[0] = np.repeat(np.arange(len(designs)), n_dies)
    row_design, row_slot, row_node, salvage_units, salvage_required = (
        columns[:5].astype(np.intp)
    )
    (
        count, ntt, nut, parallel_nut, explicit_area, min_area, fixed_yield,
        unit_fraction,
    ) = columns[5:]

    # Node parameters of the (database, node) pairs the rows use, each
    # checked once, in (database, first appearance) order, as a (field,
    # pair) table. With one database, every node the rows name is used.
    names = tuple(nodes)
    n_pairs = len(databases) * len(names)
    database_block = design_database * len(names)
    row_pair = database_block[row_design] + row_node
    used = (
        range(n_pairs)
        if len(databases) == 1
        else np.flatnonzero(np.bincount(row_pair, minlength=n_pairs)).tolist()
    )
    values = np.array([
        _read_node_fields(
            databases[pair // len(names)].require_production(
                names[pair % len(names)]
            )
        )
        for pair in used
    ]).T.copy()
    table = values
    if len(used) < n_pairs:
        table = np.full((len(_NODE_FIELDS), n_pairs), np.nan)
        table[:, used] = values
    (
        density, d0, diameter, tapeout_effort, testing_effort,
        packaging_effort, _, _, _, _, _,
    ) = table.take(row_pair, axis=1)

    # Geometry and yield inputs per die row (Eqs. 5-6).
    area = np.maximum(
        np.where(np.isnan(explicit_area), ntt / density, explicit_area),
        min_area,
    )
    wafer_area = np.pi * (diameter / 2.0) ** 2
    gross = wafer_area / area
    if edge_corrected:
        estimate = gross - np.pi * diameter / np.sqrt(2.0 * area)
        gross = np.where(
            estimate >= 1.0, estimate, np.where(area <= wafer_area, 1.0, 0.0)
        )
    if not np.all(gross > 0.0):
        bad = int(np.argmin(gross > 0.0))
        raise InvalidParameterError(
            f"design {designs[row_design[bad]].name!r}: a {area[bad]:.0f} "
            "mm^2 die does not fit on its wafer"
        )
    uncore_defects = mm2_to_cm2(area * (1.0 - unit_fraction)) * d0
    unit_defects = (
        mm2_to_cm2(area * unit_fraction / np.maximum(salvage_units, 1)) * d0
    )

    # Per-node slots: tapeout (Eq. 2, slowest die per node), NRE inputs.
    shape = (len(designs), max(map(len, processes)))
    node_mask = np.zeros(shape, dtype=bool)
    node_mask[row_design, row_slot] = True
    slot_node = np.zeros(shape, dtype=np.intp)
    slot_node[row_design, row_slot] = row_node
    slot_table = table.take(database_block[:, None] + slot_node, axis=1)

    def per_slot(name: str, pad: float = 0.0) -> np.ndarray:
        column = slot_table[_NODE_FIELDS.index(name)]
        return _readonly(np.where(node_mask, column, pad))

    tapeout_nut = parallel_nut if block_parallel else nut
    tapeout = np.zeros(shape)
    np.maximum.at(
        tapeout,
        (row_design, row_slot),
        tapeout_nut * tapeout_effort / float(engineers),
    )
    nut_by_slot = np.zeros(shape)
    np.add.at(nut_by_slot, (row_design, row_slot), nut)
    effort = nut_by_slot * per_slot("tapeout_effort")
    assembly = np.zeros(shape[0])
    np.add.at(assembly, row_design, count * area * packaging_effort)

    return PortfolioInvariants(
        designs=tuple(design.name for design in designs),
        processes=processes,
        nodes=names,
        node_mask=_readonly(node_mask),
        slot_node=_readonly(slot_node),
        tapeout_weeks=_readonly(tapeout),
        max_rate=per_slot("max_wafer_rate_per_week", 1.0),
        fab_latency_weeks=per_slot("fab_latency_weeks"),
        wafer_cost_usd=per_slot("wafer_cost_usd"),
        tapeout_effort_weeks=_readonly(effort),
        tapeout_fixed_usd=per_slot("tapeout_fixed_cost_usd"),
        mask_set_usd=per_slot("mask_set_cost_usd"),
        sequential_tapeout_weeks=_readonly(
            effort.sum(axis=1) / float(engineers)
        ),
        max_tapeout_weeks=_readonly(tapeout.max(axis=1)),
        assembly_weeks_per_chip=_readonly(assembly),
        design_weeks=_readonly(
            np.array([design.design_weeks for design in designs], dtype=float)
        ),
        alpha=alpha,
        profile_design=_readonly(row_design),
        profile_node=_readonly(row_slot),
        profile_count=_readonly(count),
        profile_ntt=_readonly(ntt),
        profile_area_mm2=_readonly(area),
        profile_gross=_readonly(gross),
        profile_testing_effort=_readonly(testing_effort),
        profile_mean_defects=_readonly(mm2_to_cm2(area) * d0),
        profile_fixed_yield=_readonly(fixed_yield),
        profile_salvage_units=_readonly(salvage_units),
        profile_salvage_required=_readonly(salvage_required),
        profile_uncore_defects=_readonly(uncore_defects),
        profile_unit_defects=_readonly(unit_defects),
    )


def portfolio_fingerprint(
    designs: Sequence[ChipDesign],
    technology: TechnologyLike,
    engineers: int = DEFAULT_ENGINEERS,
    alpha: float = DEFAULT_ALPHA,
    edge_corrected: bool = False,
    block_parallel: bool = False,
) -> tuple:
    """The shared-LRU cache key for a compiled portfolio.

    Identity-keyed (both ``ChipDesign`` and ``TechnologyDatabase`` are
    immutable by construction): the ``id()`` of the database, or of each
    per-design database, and of every design, plus the scalar model
    knobs. The key holds only ints and scalars, so it hashes in C; an id
    is unique only while its object lives, so :func:`compile_portfolio`
    pins the designs and databases in the cache entry beside the table.
    Two call sites evaluating the same design tuple under the same
    database(s) hit one cache entry.
    """
    if isinstance(technology, TechnologyDatabase):
        databases: object = id(technology)
    else:
        databases = tuple(map(id, technology))
    return (
        "portfolio",
        databases,
        tuple(map(id, designs)),
        engineers,
        alpha,
        edge_corrected,
        block_parallel,
    )


@observed_kernel("engine.compile_portfolio", lambda r: r.node_mask.size)
def compile_portfolio(
    designs: Sequence[ChipDesign],
    technology: TechnologyLike,
    engineers: int = DEFAULT_ENGINEERS,
    alpha: float = DEFAULT_ALPHA,
    edge_corrected: bool = False,
    block_parallel: bool = False,
) -> PortfolioInvariants:
    """Compile the designs into one :class:`PortfolioInvariants` table.

    ``technology`` is one database for every design, or a sequence with
    one database per design (say, an ensemble of calibration worlds as
    the rows of one table). Cached in the shared LRU under its
    :func:`portfolio_fingerprint`, weighing one unit per design against
    the cache's design bound; the entry pins the designs and databases
    whose ids the key holds.
    """
    designs = tuple(designs)
    if not designs:
        raise InvalidParameterError(
            "portfolio must contain at least one design"
        )
    if not isinstance(technology, TechnologyDatabase):
        # A tuple, so the pin cannot change under the entry.
        technology = tuple(technology)
    key = portfolio_fingerprint(
        designs,
        technology,
        engineers=engineers,
        alpha=alpha,
        edge_corrected=edge_corrected,
        block_parallel=block_parallel,
    )
    return cached_invariants(
        key,
        (designs, technology),
        lambda: _compile(
            designs,
            technology,
            engineers,
            alpha,
            edge_corrected,
            block_parallel,
        ),
    )


def _resolve_invariants(
    model: TTMModel,
    designs: Optional[Sequence[ChipDesign]],
    invariants: Optional[PortfolioInvariants] = None,
) -> PortfolioInvariants:
    """``invariants``, or ``designs`` compiled under ``model``'s knobs."""
    if invariants is not None:
        return invariants
    return compile_portfolio(
        designs,
        model.foundry.technology,
        engineers=model.engineers,
        alpha=model.alpha,
        edge_corrected=model.edge_corrected,
        block_parallel=model.block_parallel,
    )


def _sample_array(
    values: ArrayLike, what: str, *, nonnegative: bool = False
) -> np.ndarray:
    """Validate a supply-side sample input (shared across designs)."""
    array = _as_positive_array(values, what, nonnegative)
    if array.ndim > 1:
        raise InvalidParameterError(
            f"{what} is shared across designs (common random numbers) and "
            f"must be a scalar or 1-D sample vector; got shape {array.shape}"
        )
    return array


def _portfolio_quantities(
    n_chips: ArrayLike, n_designs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate ``n_chips`` and split it into node-axis/design-axis views."""
    quantities = _as_positive_array(n_chips, "number of final chips")
    if quantities.ndim > 2:
        raise InvalidParameterError(
            "n_chips must be a scalar, a shared sample vector, or a "
            f"(n_designs, n_samples) matrix; got shape {quantities.shape}"
        )
    if quantities.ndim == 2 and quantities.shape[0] != n_designs:
        raise InvalidParameterError(
            "per-design n_chips must have shape (n_designs, n_samples); "
            f"got {quantities.shape} for {n_designs} designs"
        )
    return _node_axis(quantities), quantities


def _node_axis(quantities: np.ndarray) -> np.ndarray:
    """Validated quantities on the node axis: a per-design matrix gains one."""
    return quantities[:, None, :] if quantities.ndim == 2 else quantities


@dataclass(frozen=True)
class PortfolioTTMResult:
    """TTM phase breakdown over the full (designs x samples) tensor.

    Row ``i`` is ``TTMModel.time_to_market`` of design ``i`` under each
    sample's supply (common random numbers). All arrays share the
    broadcast shape ``(n_designs, n_samples)``.
    """

    designs: Tuple[str, ...]
    schedule: str
    design_weeks: np.ndarray
    tapeout_weeks: np.ndarray
    fabrication_weeks: np.ndarray
    packaging_weeks: np.ndarray
    total_weeks: np.ndarray
    total_wafers: np.ndarray


@observed_kernel("engine.portfolio_ttm", lambda r: r.total_weeks.size)
def portfolio_ttm(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[PortfolioInvariants] = None,
) -> PortfolioTTMResult:
    """Vectorized TTM for every design under one shared sample set.

    ``capacity=None`` keeps the model's current conditions, a
    scalar/vector is a global fraction applied to every node (as in
    :meth:`TTMModel.at_capacity`), and a ``{node: fractions}`` mapping
    overrides only the listed nodes. ``queue_weeks`` replaces every
    node's quoted lead time; ``d0_scale`` multiplies every node's defect
    density (die yields, wafer demand and tested-die counts re-derive
    per sample); ``wafer_rate_scale`` multiplies every node's maximum
    rate, and the queue quote's wafer backlog scales with it. The sampled
    supply arrays are shared across designs — the common-random-numbers
    guarantee — and must be scalars or 1-D; ``n_chips`` may additionally
    be a ``(n_designs, n_samples)`` matrix.

    ``invariants`` accepts a pre-compiled portfolio; when given,
    ``designs`` is unused and may be ``None``. The phases are slab 0 of
    the scenario cube's kernel on its one identity scenario.
    """
    from .scenario import _IDENTITY, _evaluate_cube  # scenario imports us

    invariants = _resolve_invariants(model, designs, invariants)
    cube = _evaluate_cube(
        model,
        invariants,
        _IDENTITY,
        n_chips,
        capacity,
        queue_weeks,
        d0_scale,
        wafer_rate_scale,
        with_cas=False,
    )
    group = cube.groups[1.0, 1.0]
    wafers = cube.d0.tensors(1.0)[0]
    shape = cube.total.shape[1:]

    def full(array: np.ndarray) -> np.ndarray:
        return array if array.shape == shape else np.broadcast_to(array, shape)

    return PortfolioTTMResult(
        designs=invariants.designs,
        schedule=model.schedule,
        design_weeks=invariants.design_weeks,
        tapeout_weeks=full(cube.tapeout[0][:, None]),
        fabrication_weeks=cube.fabrication[0],
        packaging_weeks=full(group.packaging),
        total_weeks=cube.total[0],
        total_wafers=full(group.quantities * np.sum(wafers, axis=1)),
    )


@dataclass(frozen=True)
class PortfolioCASResult:
    """Chip Agility Score (Eq. 8) over the (designs x samples) tensor.

    ``cas`` is raw wafers/week^2 with shape ``(n_designs, n_samples)``.
    """

    designs: Tuple[str, ...]
    processes: Tuple[Tuple[str, ...], ...]
    cas: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        """CAS in the figures' normalized (kilo-wafer) units."""
        return self.cas / _WAFERS_PER_NORMALIZED_UNIT


@observed_kernel("engine.portfolio_cas", lambda r: r.cas.size)
def portfolio_cas(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[PortfolioInvariants] = None,
) -> PortfolioCASResult:
    """Vectorized CAS for every design under one shared sample set.

    Each node slot's rate is perturbed by ``relative_step`` in both
    directions and the central-difference TTM slopes summed, as
    :func:`~repro.agility.cas.chip_agility_score` does at each sample's
    conditions; the queue quote's wafer backlog stays pinned while a
    rate moves. The inputs mean what they mean for
    :func:`portfolio_ttm`, and the scores are slab 0 of the scenario
    cube's kernel on its one identity scenario.
    """
    from .scenario import _IDENTITY, _evaluate_cube  # scenario imports us

    invariants = _resolve_invariants(model, designs, invariants)
    cube = _evaluate_cube(
        model,
        invariants,
        _IDENTITY,
        n_chips,
        capacity,
        queue_weeks,
        d0_scale,
        wafer_rate_scale,
        with_cas=True,
        relative_step=relative_step,
    )
    return PortfolioCASResult(
        designs=invariants.designs,
        processes=invariants.processes,
        cas=cube.cas[0],
    )


@dataclass(frozen=True)
class PortfolioCostResult:
    """Chip-creation cost breakdown over the (designs x samples) tensor.

    NRE terms are per-design ``(n_designs,)`` vectors; recurring terms
    share the broadcast shape ``(n_designs, n_samples)``. Row ``i`` is
    ``CostModel.chip_creation_cost`` of design ``i`` per sample.
    """

    designs: Tuple[str, ...]
    engineering_usd: np.ndarray
    fixed_usd: np.ndarray
    mask_usd: np.ndarray
    wafer_usd: np.ndarray
    testing_usd: np.ndarray
    packaging_usd: np.ndarray
    n_chips: np.ndarray

    @property
    def nre_usd(self) -> np.ndarray:
        """One-time costs per design: engineering + fixed + masks."""
        return self.engineering_usd + self.fixed_usd + self.mask_usd

    @property
    def manufacturing_usd(self) -> np.ndarray:
        """Recurring costs: wafers + testing + packaging."""
        return self.wafer_usd + self.testing_usd + self.packaging_usd

    @property
    def total_usd(self) -> np.ndarray:
        """Total chip-creation cost per (design, sample) cell."""
        return self.nre_usd[:, None] + self.manufacturing_usd

    @property
    def usd_per_chip(self) -> np.ndarray:
        """Total cost amortized over each cell's production run."""
        return self.total_usd / self.n_chips


@observed_kernel("engine.portfolio_cost", lambda r: r.n_chips.size)
def portfolio_cost(
    cost_model: CostModel,
    designs: Sequence[ChipDesign],
    n_chips: ArrayLike,
    d0_scale: Optional[ArrayLike] = None,
    engineers: int = DEFAULT_ENGINEERS,
    invariants: Optional[PortfolioInvariants] = None,
) -> PortfolioCostResult:
    """Vectorized chip-creation cost for every design in one pass.

    ``engineers`` only selects which cached invariants are reused (cost
    is team-size independent); pass the companion TTM model's team size
    so a joint TTM+cost study shares one compiled portfolio.
    """
    if invariants is None:
        invariants = compile_portfolio(
            designs,
            cost_model.technology,
            engineers=engineers,
            alpha=cost_model.alpha,
            edge_corrected=cost_model.edge_corrected,
        )
    quantities_node, quantities_design = _portfolio_quantities(
        n_chips, invariants.n_designs
    )
    if d0_scale is None:
        # The nominal entry reads the table's D0-scale-1 columns.
        yields = invariants.profile_nominal_yields
        wafers = invariants.wafers_per_chip[:, :, None]
    else:
        scale = _sample_array(d0_scale, "defect density scale")
        yields = invariants.profile_yields(scale)
        wafers = invariants.wafers_per_chip_at(scale, yields=yields)
    return _portfolio_cost_from_tensors(
        cost_model,
        invariants,
        quantities_node,
        quantities_design,
        wafers,
        yields,
    )


def _portfolio_cost_from_tensors(
    cost_model: CostModel,
    invariants: PortfolioInvariants,
    quantities_node: np.ndarray,
    quantities_design: np.ndarray,
    wafers_per_chip: np.ndarray,
    yields: np.ndarray,
    production_load: Optional[np.ndarray] = None,
    dies_numerator: Optional[np.ndarray] = None,
) -> PortfolioCostResult:
    """NumPy cost kernel over precomputed D0-dependent tensors.

    Split out of :func:`portfolio_cost` so the scenario cube can compute
    the ``pow``-heavy ``wafers_per_chip_at`` / ``profile_yields`` tensors
    once per unique D0 multiplier and share them across every
    (demand, D0) combination — the arithmetic downstream of the tensors
    is unchanged, so results stay bit-identical per call.
    ``production_load``, when given, must equal ``quantities_node *
    wafers_per_chip`` (the TTM cube computes exactly that product per
    group and lends it out here); ``dies_numerator`` must equal the
    per-profile quantities times ``profile_count`` (demand-only, so the
    scenario cube shares it across D0 groups).
    """
    engineering = np.sum(
        invariants.tapeout_effort_weeks * cost_model.engineer_week_cost_usd,
        axis=1,
    )
    fixed = np.sum(invariants.tapeout_fixed_usd, axis=1)
    masks = np.sum(invariants.mask_set_usd, axis=1)

    if production_load is None:
        production_load = quantities_node * wafers_per_chip
    wafer_usd = np.sum(
        production_load * invariants.wafer_cost_usd[:, :, None],
        axis=1,
    )

    if quantities_design.ndim == 2:
        profile_quantities: np.ndarray = quantities_design[
            invariants.profile_design
        ]
    else:
        profile_quantities = quantities_design
    if dies_numerator is None:
        dies_numerator = (
            profile_quantities * invariants.profile_count[:, None]
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
        np.shape(quantities_design)[-1:] if quantities_design.ndim else (),
    )
    testing_usd = _scatter_in_order(
        np.zeros((invariants.n_designs,) + tail),
        invariants.design_ranks,
        testing_contribution,
    )
    packaging_usd = np.zeros((invariants.n_designs,) + tail)
    packaging_usd += quantities_design * cost_model.package_base_usd
    _scatter_in_order(
        packaging_usd, invariants.design_ranks, packaging_contribution
    )

    shape = np.broadcast_shapes(
        (invariants.n_designs,) + tail, np.shape(wafer_usd)
    )
    return PortfolioCostResult(
        designs=invariants.designs,
        engineering_usd=engineering,
        fixed_usd=fixed,
        mask_usd=masks,
        wafer_usd=np.broadcast_to(np.asarray(wafer_usd, float), shape),
        testing_usd=np.broadcast_to(testing_usd, shape),
        packaging_usd=np.broadcast_to(packaging_usd, shape),
        n_chips=np.broadcast_to(quantities_design, shape),
    )


def portfolio_ttm_over_capacity(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    n_chips: float,
    fractions: Sequence[float],
) -> np.ndarray:
    """Total TTM over a global capacity sweep, ``(n_designs, n_points)``."""
    return portfolio_ttm(
        model, designs, n_chips, capacity=fractions
    ).total_weeks


def portfolio_cas_over_capacity(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    n_chips: float,
    fractions: Sequence[float],
    relative_step: float = DEFAULT_RELATIVE_STEP,
) -> np.ndarray:
    """Normalized CAS over a global capacity sweep, ``(n_designs, n_points)``."""
    return portfolio_cas(
        model,
        designs,
        n_chips,
        capacity=fractions,
        relative_step=relative_step,
    ).normalized


__all__ = [
    "PortfolioCASResult",
    "PortfolioCostResult",
    "PortfolioInvariants",
    "PortfolioTTMResult",
    "compile_portfolio",
    "portfolio_cas",
    "portfolio_cas_over_capacity",
    "portfolio_cost",
    "portfolio_fingerprint",
    "portfolio_ttm",
    "portfolio_ttm_over_capacity",
]
