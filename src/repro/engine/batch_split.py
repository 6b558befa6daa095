"""Vectorized multi-process split engine (the Fig. 14 pair x split sweep).

The scalar Sec. 7 path
(:func:`repro.multiprocess.allocation.evaluate_allocation` over a plan's
``allocations``) re-derives each ported design's invariants once per
(pair, split) plan: a 10-node, 100-point study costs thousands of full
scalar model evaluations. This module evaluates every two-node study
from one compiled *line table* per stage instead:

* each node's ported design is built **once** (`design_factory(node)`),
  and every production line the stage needs — each node's design at
  each allocated fraction, under the base supply and under each CAS
  rate perturbation, for every supply sample — is one column of one TTM
  :func:`~repro.engine.scenario.evaluate` call; line costs are one cost
  call;
* the split TTM is the ``max`` over the production lines (the order is
  filled when the slower line finishes);
* two-node CAS (Eq. 8) perturbs each allocation node's wafer rate by the
  same relative step the scalar central difference uses — the perturbed
  line columns are shared across every plan that touches the node;
* cost pays NRE on *both* nodes (the methodology's overhead) plus each
  line's recurring manufacturing.

One rule, :func:`_score`, turns line weeks into a split's TTM and CAS
for the Fig. 14 grid (:func:`batch_split`) and for the Monte Carlo plan
study (:func:`batch_split_samples`, a fixed
:class:`~repro.multiprocess.split.ProductionSplit` under sampled supply
factors). Results match the scalar oracle to <= 1e-9 relative error
(pinned by ``tests/engine/test_batch_split.py``), and every line equals
its own one-design ``evaluate`` bit for bit.

Degenerate cells (``split >= 1.0`` or a diagonal ``primary ==
secondary`` pair) reproduce the scalar
:func:`~repro.multiprocess.split.single_process_plan` semantics: one
line, one NRE, CAS over the primary node only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..agility.derivative import DEFAULT_RELATIVE_STEP
from ..cost.model import CostModel
from ..errors import InvalidParameterError
from ..multiprocess.split import (
    DEFAULT_REFINE_POINTS,
    DEFAULT_SPLIT_GRID,
    DesignFactory,
    ProductionSplit,
    SplitEvaluation,
)
from ..obs.instrument import observed_kernel
from ..ttm.model import TTMModel
from .portfolio import ArrayLike, CapacityLike, _as_positive_array
from .scenario import _validate_base, evaluate

@dataclass(frozen=True)
class SplitGridResult:
    """The full (pair x split) evaluation tensor.

    All arrays share the shape ``(n_pairs, n_splits)``. Cells flagged in
    ``single_mask`` carry single-process semantics: their effective
    split is 1.0, ``line_weeks_secondary`` is NaN, cost pays one NRE and
    CAS senses only the primary node.

    Attributes
    ----------
    n_chips:
        Final chips the whole order fills (shared by every cell).
    pairs:
        ``(primary, secondary)`` node names, one per tensor row.
    splits:
        Effective primary-node fraction per cell (1.0 on single cells).
    ttm_weeks / cost_usd / cas:
        The three Fig. 14 panels; ``cas`` is all zeros when the tensor
        was evaluated with ``with_cas=False``.
    line_weeks_primary / line_weeks_secondary:
        Per-line completion weeks (secondary is NaN on single cells).
    single_mask:
        True where the cell degenerates to one production line.
    """

    n_chips: float
    pairs: Tuple[Tuple[str, str], ...]
    splits: np.ndarray
    ttm_weeks: np.ndarray
    cost_usd: np.ndarray
    cas: np.ndarray
    line_weeks_primary: np.ndarray
    line_weeks_secondary: np.ndarray
    single_mask: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))

    @property
    def n_pairs(self) -> int:
        return self.splits.shape[0]

    @property
    def n_splits(self) -> int:
        return self.splits.shape[1]

    def pair_index(self, primary: str, secondary: str) -> int:
        """Row index of one ``(primary, secondary)`` pair."""
        try:
            return self.pairs.index((primary, secondary))
        except ValueError:
            raise InvalidParameterError(
                f"pair ({primary!r}, {secondary!r}) is not in this grid "
                f"(have {list(self.pairs)})"
            ) from None

    def evaluation(self, pair_index: int, split_index: int) -> SplitEvaluation:
        """One tensor cell as a scalar-equivalent :class:`SplitEvaluation`."""
        primary, secondary = self.pairs[pair_index]
        cell = (pair_index, split_index)
        line_weeks: Dict[str, float] = {
            primary: float(self.line_weeks_primary[cell])
        }
        if bool(self.single_mask[cell]):
            # Mirrors ``single_process_plan``: the degenerate plan names
            # the primary node on both axes.
            secondary = primary
        else:
            line_weeks[secondary] = float(self.line_weeks_secondary[cell])
        return SplitEvaluation(
            primary=primary,
            secondary=secondary,
            split=float(self.splits[cell]),
            n_chips=self.n_chips,
            ttm_weeks=float(self.ttm_weeks[cell]),
            cost_usd=float(self.cost_usd[cell]),
            cas=float(self.cas[cell]),
            line_weeks=line_weeks,
        )

    def best_index(self, pair_index: int) -> int:
        """Grid-point index of the pair's max-CAS split (lower-TTM ties).

        Exactly reproduces the scalar optimizer's ``max(evaluations,
        key=(cas, -ttm))``, including its first-wins tie behavior.
        """
        cas_row = self.cas[pair_index]
        ttm_row = self.ttm_weeks[pair_index]
        best = 0
        for j in range(1, self.n_splits):
            if (cas_row[j], -ttm_row[j]) > (cas_row[best], -ttm_row[best]):
                best = j
        return best

    def best_evaluation(self, pair_index: int) -> SplitEvaluation:
        """The pair's CAS-optimal cell."""
        return self.evaluation(pair_index, self.best_index(pair_index))

    def best_evaluations(self) -> Tuple[SplitEvaluation, ...]:
        """Each pair's CAS-optimal cell, in ``pairs`` order."""
        return tuple(self.best_evaluation(i) for i in range(self.n_pairs))


class _LineEngine:
    """Every production line of one study stage, from one line table.

    A line is a node's ported design running some fraction of the order
    on its own node. The caller names every line up front as ``probes``
    (node -> the fractions it needs), and the engine evaluates them all
    with one TTM :func:`~repro.engine.scenario.evaluate` call (and one
    cost call when given a ``cost_model``; the TTM call runs on the
    block-tiled chips, so pricing cost in it would price every block):

    * design axis: the ported design of each probed node, built once;
    * sample axis: blocks x fractions x supply samples. Block 0 holds
      the base supply; with ``with_cas``, each node the designs use
      moves to :meth:`perturbation`'s fractions in a +step and a -step
      block, which it shares with the nodes no design fabricates on
      together with it. The supply samples are ``n_chips`` and the
      sampled keywords (scalars or 1-D sample vectors, as for
      ``evaluate``; a capacity mapping overrides the nodes it names,
      the model's conditions give the rest), the same in every block.
      Each design's distinct fractions, times ``n_chips``, are tiled
      across the blocks as its own ``n_chips`` row.

    A line never reads another node's capacity, so each column equals
    the one-design ``evaluate`` of that line bit for bit: equal operands
    give equal bits. :meth:`totals` and :meth:`costs` then only index the
    evaluated table at a line's :meth:`columns`, one row per fraction and
    one column per supply sample.
    """

    def __init__(
        self,
        design_factory: DesignFactory,
        model: TTMModel,
        probes: Mapping[str, Sequence[np.ndarray]],
        n_chips: ArrayLike,
        relative_step: float,
        *,
        cost_model: Optional[CostModel] = None,
        with_cas: bool = True,
        capacity: Optional[CapacityLike] = None,
        queue_weeks: Optional[ArrayLike] = None,
        d0_scale: Optional[ArrayLike] = None,
        wafer_rate_scale: Optional[ArrayLike] = None,
    ) -> None:
        self.model = model
        self.relative_step = relative_step
        n_samples, supply = _validate_base(
            n_chips, 1, capacity, queue_weeks, d0_scale, wafer_rate_scale
        )
        self._capacity = supply["capacity"]
        rate_scale = supply["wafer_rate_scale"]
        self._rate_scale = 1.0 if rate_scale is None else rate_scale
        self._perturbations: Dict[str, Tuple[ArrayLike, ...]] = {}
        self._fractions = {
            node: np.unique(np.concatenate(arrays))
            for node, arrays in probes.items()
            if any(np.size(array) for array in arrays)
        }
        nodes = tuple(self._fractions)
        self._row = {node: row for row, node in enumerate(nodes)}
        designs = tuple(design_factory(node) for node in nodes)
        self._processes = {
            node: frozenset(design.processes)
            for node, design in zip(nodes, designs)
        }
        used = tuple(
            {process: None for d in designs for process in d.processes}
        )
        # Nodes no design fabricates on together step in one pair of
        # blocks: a design then sees at most one of its nodes moved in
        # any block, so a study of one-node designs needs three blocks.
        self._block: Dict[Tuple[str, int], int] = {}
        if with_cas:
            for node in used:
                taken = {
                    self._block.get((other, +1))
                    for processes in self._processes.values()
                    if node in processes
                    for other in processes
                }
                plus = 1
                while plus in taken:
                    plus += 2
                self._block[(node, +1)] = plus
                self._block[(node, -1)] = plus + 1
        n_blocks = 1 + max(self._block.values(), default=0)
        width = max(len(known) for known in self._fractions.values())
        fractions = np.array([
            np.pad(known, (0, width - len(known)), mode="edge")
            for known in self._fractions.values()
        ])
        chips = supply["n_chips"] * fractions[:, :, None]
        table = (n_blocks, width, n_samples)

        def laid_out(values, shape=table):
            """``values`` broadcast to ``shape`` and flattened: one value
            per block x fraction x supply sample."""
            if values is None:
                return None
            out = np.empty(shape)
            out[...] = values
            return out.reshape(-1)

        capacity_map = {}
        for node in used:
            column = np.empty((n_blocks, 1, n_samples))
            column[...] = self.base_capacity(node)
            if with_cas:
                _, plus, minus = self.perturbation(node)
                column[self._block[(node, +1)]] = plus
                column[self._block[(node, -1)]] = minus
            capacity_map[node] = laid_out(column)
        self._weeks = evaluate(
            model,
            designs,
            laid_out(chips[:, None], (len(designs), *table)).reshape(
                len(designs), -1
            ),
            ("ttm",),
            capacity=capacity_map,
            queue_weeks=laid_out(supply["queue_weeks"]),
            d0_scale=laid_out(supply["d0_scale"]),
            wafer_rate_scale=laid_out(rate_scale),
        ).ttm.total_weeks[0].reshape(len(designs), *table)
        self._costs = None
        if cost_model is not None:
            self._costs = evaluate(
                model,
                designs,
                laid_out(chips, (len(designs), *table[1:])).reshape(
                    len(designs), -1
                ),
                ("cost",),
                d0_scale=laid_out(supply["d0_scale"], table[1:]),
                cost_model=cost_model,
            ).cost.total_usd[0].reshape(len(designs), *table[1:])

    def base_capacity(self, node: str) -> ArrayLike:
        """``node``'s capacity fraction(s) before any CAS step."""
        if isinstance(self._capacity, Mapping):
            if node in self._capacity:
                return self._capacity[node]
        elif self._capacity is not None:
            return self._capacity
        return self.model.foundry.conditions.capacity_for(node)

    def perturbation(self, node: str) -> Tuple[ArrayLike, ...]:
        """(absolute step, fraction at +step, fraction at -step).

        Mirrors the scalar CAS of
        :func:`~repro.multiprocess.allocation.evaluate_allocation` under
        each supply sample: the node's rate is its capacity fraction
        times its (scaled) max rate, the step is ``rate *
        relative_step``, and the perturbed rate goes back into the model
        as a capacity *fraction* (the same rate -> fraction -> rate
        round trip, so kinks land on identical abscissae).
        """
        if node not in self._perturbations:
            fraction = self.base_capacity(node)
            if not np.all(np.asarray(fraction) > 0.0):
                raise InvalidParameterError(
                    f"cannot evaluate CAS with zero capacity on {node!r}"
                )
            scaled_max = (
                self.model.foundry.technology.require_production(
                    node
                ).max_wafer_rate_per_week
                * self._rate_scale
            )
            rate = fraction * scaled_max
            step = rate * self.relative_step
            self._perturbations[node] = (
                step,
                (rate + step) / scaled_max,
                (rate - step) / scaled_max,
            )
        return self._perturbations[node]

    def columns(self, node: str, fractions: np.ndarray) -> np.ndarray:
        """Where the lines making ``fractions`` of the order on ``node``
        sit in its row of the table."""
        return np.searchsorted(self._fractions[node], fractions)

    def totals(
        self,
        node: str,
        columns: np.ndarray,
        perturb: Optional[str] = None,
        sign: int = 0,
    ) -> np.ndarray:
        """Completion weeks of ``node``'s lines at ``columns``,
        ``(lines, supply samples)``.

        ``perturb``/``sign`` read the lines with ``perturb``'s wafer rate
        displaced by one CAS step. A line whose ported design never
        fabricates on ``perturb`` reads its base block, which is exactly
        the scalar behavior: the perturbed market conditions only move
        lines that use the node.
        """
        block = 0
        if perturb in self._processes[node]:
            block = self._block[(perturb, sign)]
        return self._weeks[self._row[node], block, columns]

    def costs(self, node: str, columns: np.ndarray) -> np.ndarray:
        """Chip-creation cost (node NRE + recurring) of ``node``'s lines
        at ``columns``, ``(lines, supply samples)``."""
        return self._costs[self._row[node], columns]


class _Scores(NamedTuple):
    """Plans scored from their lines: each ``(plans, supply samples)``."""

    line_weeks: Dict[str, np.ndarray]
    ttm: np.ndarray
    cas: np.ndarray
    cost: Optional[np.ndarray]


def _score(
    engine: _LineEngine, lines: Mapping[str, np.ndarray], with_cas: bool
) -> _Scores:
    """TTM, CAS and cost of plans that share their allocation nodes.

    ``lines`` maps each allocation node to the fraction of the order its
    line makes, one entry per plan. The order is filled when the slower
    line finishes, so TTM is the max over the lines; Eq. 8's CAS is
    ``1 / sum over the allocation nodes of |max+ - max-| / (2 step)``,
    each node's rate displaced by its step in both directions; cost sums
    the lines' costs when the engine priced them.
    """

    columns = {
        node: engine.columns(node, fractions)
        for node, fractions in lines.items()
    }

    def finish(perturb: Optional[str] = None, sign: int = 0) -> np.ndarray:
        return reduce(
            np.maximum,
            (
                engine.totals(node, at, perturb, sign)
                for node, at in columns.items()
            ),
        )

    line_weeks = {
        node: engine.totals(node, at) for node, at in columns.items()
    }
    ttm = reduce(np.maximum, line_weeks.values())
    cas = np.zeros(np.shape(ttm))
    if with_cas:
        sensitivity = sum(
            np.abs(
                (finish(node, +1) - finish(node, -1))
                / (2.0 * engine.perturbation(node)[0])
            )
            for node in lines
        )
        if not np.all(sensitivity > 0.0):
            raise InvalidParameterError(
                "split has zero TTM sensitivity; CAS is unbounded"
            )
        cas = 1.0 / sensitivity
    cost = None
    if engine._costs is not None:
        cost = sum(engine.costs(node, at) for node, at in columns.items())
    return _Scores(line_weeks, ttm, cas, cost)


def _split_matrix(split_grid, n_pairs: int) -> np.ndarray:
    """Validate and broadcast the split grid to ``(n_pairs, n_splits)``."""
    array = np.asarray(split_grid, dtype=float)
    if array.size == 0:
        raise InvalidParameterError("split grid must be non-empty")
    if array.ndim == 1:
        array = np.broadcast_to(array, (n_pairs, array.size))
    elif array.ndim == 2:
        if array.shape[0] != n_pairs:
            raise InvalidParameterError(
                f"per-pair split grid has {array.shape[0]} rows "
                f"for {n_pairs} pairs"
            )
    else:
        raise InvalidParameterError(
            f"split grid must be 1-D or (n_pairs, n_splits), got shape "
            f"{array.shape}"
        )
    valid = (array > 0.0) & (array <= 1.0)
    if not np.all(valid):
        bad = float(array[~valid].reshape(-1)[0])
        raise InvalidParameterError(f"split must be in (0, 1], got {bad}")
    return np.array(array, dtype=float)  # owned, writable copy


def _check_step(relative_step: float) -> None:
    if not 0.0 < relative_step < 1.0:
        raise InvalidParameterError(
            f"relative step must be in (0, 1), got {relative_step}"
        )


@observed_kernel("engine.batch_split", lambda r: r.ttm_weeks.size)
def batch_split(
    design_factory: DesignFactory,
    pairs: Sequence[Tuple[str, str]],
    model: TTMModel,
    cost_model: CostModel,
    n_chips: float,
    split_grid: ArrayLike = DEFAULT_SPLIT_GRID,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    with_cas: bool = True,
) -> SplitGridResult:
    """Evaluate the full (pair x split-grid) tensor in one shot.

    Parameters
    ----------
    design_factory:
        Ports the architecture to a node; called once per distinct node.
    pairs:
        ``(primary, secondary)`` node names, one tensor row each.
        Diagonal pairs (``primary == secondary``) evaluate the
        single-process plan at every grid point.
    model / cost_model:
        The scalar models whose semantics the tensor reproduces.
    n_chips:
        Final chips the order fills (split across the two lines).
    split_grid:
        Primary-node fractions in (0, 1]: one shared 1-D grid, or a
        per-pair ``(n_pairs, n_splits)`` matrix (the refinement stage).
    relative_step:
        CAS central-difference step, relative to each node's rate.
    with_cas:
        Skip the CAS differences (leaving zeros) when only TTM/cost
        panels are needed; matches
        ``evaluate_allocation(..., with_cas=False)``.
    """
    pair_list: List[Tuple[str, str]] = [(str(p), str(q)) for p, q in pairs]
    if not pair_list:
        raise InvalidParameterError("need at least one node pair")
    if n_chips <= 0.0:
        raise InvalidParameterError(
            f"number of final chips must be positive, got {n_chips}"
        )
    _check_step(relative_step)
    splits = _split_matrix(split_grid, len(pair_list))
    for i, (primary, secondary) in enumerate(pair_list):
        if primary == secondary:
            splits[i, :] = 1.0
    single = splits >= 1.0

    probes: Dict[str, List[np.ndarray]] = {}
    for i, (primary, secondary) in enumerate(pair_list):
        probes.setdefault(primary, []).append(splits[i])
        probes.setdefault(secondary, []).append(1.0 - splits[i][~single[i]])
    engine = _LineEngine(
        design_factory,
        model,
        probes,
        n_chips,
        relative_step,
        cost_model=cost_model,
        with_cas=with_cas,
    )
    n_pairs, n_splits = splits.shape
    ttm = np.empty((n_pairs, n_splits))
    cost = np.empty((n_pairs, n_splits))
    cas = np.zeros((n_pairs, n_splits))
    line_primary = np.empty((n_pairs, n_splits))
    line_secondary = np.full((n_pairs, n_splits), np.nan)

    # A single cell is its primary node's one-line plan, whatever the
    # pair, so each node's is scored once.
    alone: Dict[str, _Scores] = {}
    for i, (primary, secondary) in enumerate(pair_list):
        cells = single[i]
        if cells.any():
            if primary not in alone:
                alone[primary] = _score(
                    engine, {primary: np.ones(1)}, with_cas
                )
            scores = alone[primary]
            line_primary[i, cells] = scores.line_weeks[primary][0, 0]
            ttm[i, cells] = scores.ttm[0, 0]
            cost[i, cells] = scores.cost[0, 0]
            cas[i, cells] = scores.cas[0, 0]
        cells = ~single[i]
        if cells.any():
            scores = _score(
                engine,
                {primary: splits[i, cells], secondary: 1.0 - splits[i, cells]},
                with_cas,
            )
            line_primary[i, cells] = scores.line_weeks[primary][:, 0]
            line_secondary[i, cells] = scores.line_weeks[secondary][:, 0]
            ttm[i, cells] = scores.ttm[:, 0]
            cost[i, cells] = scores.cost[:, 0]
            cas[i, cells] = scores.cas[:, 0]

    return SplitGridResult(
        n_chips=float(n_chips),
        pairs=tuple(pair_list),
        splits=splits,
        ttm_weeks=ttm,
        cost_usd=cost,
        cas=cas,
        line_weeks_primary=line_primary,
        line_weeks_secondary=line_secondary,
        single_mask=single,
    )


def _bracket(result: SplitGridResult, pair_index: int) -> Tuple[float, float]:
    """The coarse optimum's two grid neighbours (or a mirrored edge)."""
    row = result.splits[pair_index]
    best = float(row[result.best_index(pair_index)])
    below = row[row < best]
    above = row[row > best]
    lower = float(below.max()) if below.size else best / 2.0
    upper = float(above.min()) if above.size else min(
        1.0, best + (best - lower)
    )
    return lower, upper


def _affine_fit(
    fractions: np.ndarray, values: np.ndarray
) -> Tuple[float, float]:
    """(intercept, slope) of the line through the outer probe points."""
    slope = float(
        (values[2] - values[0]) / (fractions[2] - fractions[0])
    )
    return float(values[0]) - slope * float(fractions[0]), slope


def _probe_is_affine(values: np.ndarray, rtol: float = 1e-9) -> bool:
    """Whether the midpoint probe sits on the chord of the outer two."""
    predicted = (float(values[0]) + float(values[2])) / 2.0
    scale = max(abs(float(values[1])), 1.0)
    return abs(float(values[1]) - predicted) <= rtol * scale


def _affine_crossing(
    line_a: Tuple[float, float],
    line_b: Tuple[float, float],
    lo: float,
    hi: float,
) -> Optional[float]:
    """Interior zero of ``line_a - line_b`` in ``(lo, hi)``, if any."""
    slope = line_a[1] - line_b[1]
    if slope == 0.0:
        return None
    crossing = (line_b[0] - line_a[0]) / slope
    return crossing if lo < crossing < hi else None


def refine_split_exact(
    result: SplitGridResult,
    design_factory: DesignFactory,
    model: TTMModel,
    cost_model: CostModel,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    points: int = DEFAULT_REFINE_POINTS,
) -> np.ndarray:
    """Per-pair *exact* candidate splits bracketing each coarse optimum.

    Within one coarse-grid spacing, each production line's completion
    weeks are affine in the allocated fraction (the active bottleneck
    does not change), so every quantity the optimizer ranks is
    piecewise affine in the split: TTM is the max of two lines, and the
    CAS denominator is a sum of absolute differences of such maxima
    (one per perturbed node). A piecewise-affine objective attains its
    optimum at a breakpoint — a crossing of two line functions, a zero
    of a perturbation difference, or a bracket endpoint — so instead of
    carpeting the bracket with a fine grid this pass *solves* for those
    breakpoints:

    1. probe each line at the bracket's endpoints and midpoint, under
       the base scenario and the four CAS perturbations (``primary``/
       ``secondary`` rate, each displaced both ways);
    2. verify the midpoint probe is on the endpoint chord (relative
       tolerance 1e-9) — rows where any scenario bends fall back to a
       ``points``-point even grid across the bracket, and so do
       brackets reaching split 1.0, where the secondary line vanishes
       (no line is probed at a zero fraction);
    3. fit the affine coefficients and enumerate every interior
       crossing and sensitivity zero as a candidate split.

    The returned ``(n_pairs, n_candidates)`` matrix (rows padded with
    their last candidate, diagonal pairs pinned at 1.0) feeds a second
    :func:`batch_split` call, whose best cell is the bracket's true
    optimum, not a grid approximation of it.
    """
    if points < 2:
        raise InvalidParameterError(
            f"refinement needs at least 2 points, got {points}"
        )
    brackets: List[Optional[Tuple[float, float, Optional[np.ndarray]]]] = []
    probes: Dict[str, List[np.ndarray]] = {}
    for i in range(result.n_pairs):
        if bool(result.single_mask[i].all()):
            brackets.append(None)
            continue
        primary, secondary = result.pairs[i]
        lo, hi = _bracket(result, i)
        if hi >= 1.0:
            brackets.append((lo, hi, None))
            continue
        at = np.asarray([lo, (lo + hi) / 2.0, hi])
        brackets.append((lo, hi, at))
        probes.setdefault(primary, []).append(at)
        probes.setdefault(secondary, []).append(1.0 - at)
    engine = None
    if probes:
        engine = _LineEngine(
            design_factory, model, probes, result.n_chips, relative_step
        )
    rows: List[np.ndarray] = []
    for i, bracket in enumerate(brackets):
        if bracket is None:
            rows.append(np.asarray([1.0]))
            continue
        primary, secondary = result.pairs[i]
        lo, hi, at = bracket
        if at is None:  # the bracket reaches split 1.0
            rows.append(np.linspace(lo, hi, points))
            continue
        scenarios = (
            (None, 0),
            (primary, +1),
            (primary, -1),
            (secondary, +1),
            (secondary, -1),
        )
        fits = {}
        affine = True
        columns_p = engine.columns(primary, at)
        columns_q = engine.columns(secondary, 1.0 - at)
        for perturb, sign in scenarios:
            weeks_p = engine.totals(primary, columns_p, perturb, sign)[:, 0]
            weeks_q = engine.totals(secondary, columns_q, perturb, sign)[:, 0]
            if not (
                _probe_is_affine(weeks_p) and _probe_is_affine(weeks_q)
            ):
                affine = False
                break
            fits[(perturb, sign)] = (
                _affine_fit(at, weeks_p),
                _affine_fit(at, weeks_q),
            )
        if not affine:
            rows.append(np.linspace(lo, hi, points))
            continue

        candidates = {lo, hi}
        base_cross = _affine_crossing(*fits[(None, 0)], lo, hi)
        if base_cross is not None:
            candidates.add(base_cross)
        for node in (primary, secondary):
            up_p, up_q = fits[(node, +1)]
            dn_p, dn_q = fits[(node, -1)]
            breaks = {lo, hi}
            for pair_fit in ((up_p, up_q), (dn_p, dn_q)):
                crossing = _affine_crossing(*pair_fit, lo, hi)
                if crossing is not None:
                    breaks.add(crossing)
            edges = sorted(breaks)
            candidates.update(edges)
            # Sensitivity zeros: where the +step and -step maxima meet
            # inside a segment, the |difference| kinks at zero.
            for left, right in zip(edges, edges[1:]):
                mid = (left + right) / 2.0

                def _active(fit_p, fit_q):
                    value_p = fit_p[0] + fit_p[1] * mid
                    value_q = fit_q[0] + fit_q[1] * mid
                    return fit_p if value_p >= value_q else fit_q

                zero = _affine_crossing(
                    _active(up_p, up_q), _active(dn_p, dn_q), left, right
                )
                if zero is not None:
                    candidates.add(zero)
        ordered = sorted(candidates)
        deduped = [ordered[0]]
        for value in ordered[1:]:
            if value - deduped[-1] > 1e-12:
                deduped.append(value)
        rows.append(np.asarray(deduped))

    width = max(2, max(len(candidate_row) for candidate_row in rows))
    fine = np.empty((result.n_pairs, width))
    for i, candidate_row in enumerate(rows):
        fine[i, : len(candidate_row)] = candidate_row
        fine[i, len(candidate_row):] = candidate_row[-1]
    return fine


@dataclass(frozen=True)
class SplitSampleResult:
    """A fixed production split evaluated across sampled supply draws.

    All arrays are aligned with the sample axis. ``cost_usd`` is None
    when no cost model was supplied.
    """

    primary: str
    secondary: str
    split: float
    n_chips: np.ndarray
    ttm_weeks: np.ndarray
    cas: np.ndarray
    cost_usd: Optional[np.ndarray]
    line_weeks: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "line_weeks", dict(self.line_weeks))

    @property
    def usd_per_chip(self) -> Optional[np.ndarray]:
        """Per-sample cost amortized over that sample's production run."""
        if self.cost_usd is None:
            return None
        return self.cost_usd / self.n_chips


@observed_kernel("engine.batch_split_samples", lambda r: r.ttm_weeks.size)
def batch_split_samples(
    plan: ProductionSplit,
    model: TTMModel,
    n_chips: ArrayLike,
    cost_model: Optional[CostModel] = None,
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    with_cas: bool = True,
) -> SplitSampleResult:
    """Push one production split through sampled supply factors.

    The Monte Carlo face of the split engine: ``n_chips`` and the
    sampled keywords are scalars or 1-D sample vectors, as for
    :func:`~repro.engine.scenario.evaluate`, laid on the sample axis of
    the plan's line table beside its base and CAS-step blocks — a
    10k-sample robustness study of a two-node plan costs one TTM and
    one cost array evaluation, not 10k scalar ones.

    CAS is evaluated per sample: each allocation node's *effective*
    rate (sampled capacity x scaled max rate) is displaced by
    ``relative_step`` in both directions and the max-coupled line
    totals are centrally differenced, mirroring the scalar CAS of
    :func:`~repro.multiprocess.allocation.evaluate_allocation` under
    each draw's market conditions.
    """
    _check_step(relative_step)
    quantities = _as_positive_array(n_chips, "number of final chips")
    lines = {
        node: np.array([fraction])
        for node, fraction in plan.allocations.items()
    }
    engine = _LineEngine(
        plan.design_factory,
        model,
        {node: [fraction] for node, fraction in lines.items()},
        quantities,
        relative_step,
        cost_model=cost_model,
        with_cas=with_cas,
        capacity=capacity,
        queue_weeks=queue_weeks,
        d0_scale=d0_scale,
        wafer_rate_scale=wafer_rate_scale,
    )
    scores = _score(engine, lines, with_cas)
    shape = np.broadcast_shapes(scores.ttm.shape[1:], quantities.shape)
    return SplitSampleResult(
        primary=plan.primary,
        secondary=plan.secondary,
        split=plan.split,
        n_chips=np.broadcast_to(quantities, shape),
        ttm_weeks=np.broadcast_to(scores.ttm[0], shape),
        cas=np.broadcast_to(scores.cas[0], shape),
        cost_usd=(
            None
            if scores.cost is None
            else np.broadcast_to(scores.cost[0], shape)
        ),
        line_weeks={
            node: np.broadcast_to(weeks[0], shape)
            for node, weeks in scores.line_weeks.items()
        },
    )


__all__ = [
    "DEFAULT_REFINE_POINTS",
    "DEFAULT_SPLIT_GRID",
    "SplitGridResult",
    "SplitSampleResult",
    "batch_split",
    "batch_split_samples",
    "refine_split_exact",
]
