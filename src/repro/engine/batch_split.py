"""Vectorized multi-process split engine (the Fig. 14 pair x split sweep).

The scalar Sec. 7 path (:func:`repro.multiprocess.split.evaluate_split`)
re-derives each ported design's invariants once per (pair, split) plan:
a 10-node, 100-point study costs thousands of full scalar model
evaluations. This module evaluates the whole (pair x split-grid) tensor
from one compiled *line table* per stage instead:

* each node's ported design is built **once** (`design_factory(node)`),
  and every production line the stage needs — each node's design at
  each allocated fraction, under the base conditions and under each CAS
  rate perturbation — is one column of one TTM
  :func:`~repro.engine.scenario.evaluate` call; line costs are one cost
  call;
* the split TTM is the ``max`` over the two production lines (the order
  is filled when the slower line finishes);
* two-node CAS (Eq. 8) perturbs each node's wafer rate by the same
  relative step the scalar central difference uses — the perturbed line
  columns are shared across every pair that touches the node;
* cost pays NRE on *both* nodes (the methodology's overhead) plus each
  line's recurring manufacturing.

Results match the scalar oracle to <= 1e-9 relative error (pinned by
``tests/engine/test_batch_split.py``), and every line equals its own
one-design ``evaluate`` bit for bit.

Degenerate cells (``split >= 1.0`` or a diagonal ``primary ==
secondary`` pair) reproduce the scalar
:func:`~repro.multiprocess.split.single_process_plan` semantics: one
line, one NRE, CAS over the primary node only.

:func:`batch_split_samples` is the Monte Carlo face of the same kernel:
a fixed :class:`~repro.multiprocess.split.ProductionSplit` evaluated
across sampled supply factors (demand, capacity, queue quotes, defect
density, wafer rates), one batched call per production line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
from .scenario import evaluate

@dataclass(frozen=True)
class SplitGridResult:
    """The full (pair x split) evaluation tensor with argmax helpers.

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

    # -- Argmax helpers over the per-pair optima --------------------------------

    def argmax_cas(self) -> Tuple[Tuple[str, str], SplitEvaluation]:
        """(pair, evaluation) with the highest CAS among per-pair optima."""
        return self._pick(lambda ev: ev.cas)

    def argmin_ttm(self) -> Tuple[Tuple[str, str], SplitEvaluation]:
        """(pair, evaluation) with the lowest TTM among per-pair optima."""
        return self._pick(lambda ev: -ev.ttm_weeks)

    def argmin_cost(self) -> Tuple[Tuple[str, str], SplitEvaluation]:
        """(pair, evaluation) with the lowest cost among per-pair optima."""
        return self._pick(lambda ev: -ev.cost_usd)

    def _pick(self, score) -> Tuple[Tuple[str, str], SplitEvaluation]:
        ranked = [
            (score(evaluation), -i, self.pairs[i], evaluation)
            for i, evaluation in enumerate(self.best_evaluations())
        ]
        _, _, pair, evaluation = max(ranked)
        return pair, evaluation


class _LineEngine:
    """Every production line of one study stage, from one line table.

    A line is a node's ported design running some fraction of the order
    on its own node. The caller names every line up front as ``probes``
    (node -> the fractions it needs), and the engine evaluates them all
    with one TTM :func:`~repro.engine.scenario.evaluate` call (and one
    cost call when ``with_cost``; the TTM call runs on the block-tiled
    chips, so pricing cost in it would price every block):

    * design axis: the ported design of each probed node, built once;
    * sample axis: blocks x fractions. Block 0 holds the model's
      conditions; with ``with_cas``, each node the designs use adds a
      +step and a -step block in which only that node's capacity moves,
      to :meth:`perturbation`'s fractions. Each design's distinct
      fractions, times ``n_chips``, are tiled across the blocks as its
      own ``n_chips`` row.

    A line never reads another node's capacity, so each column equals
    the one-design ``evaluate`` of that line bit for bit: equal operands
    give equal bits. :meth:`totals` and :meth:`costs` then only index the
    evaluated table.
    """

    def __init__(
        self,
        design_factory: DesignFactory,
        model: TTMModel,
        cost_model: CostModel,
        n_chips: float,
        relative_step: float,
        probes: Mapping[str, Sequence[np.ndarray]],
        with_cas: bool = True,
        with_cost: bool = True,
    ) -> None:
        self.model = model
        self.relative_step = relative_step
        self._perturbations: Dict[str, Tuple[float, float, float]] = {}
        self._fractions = {
            node: np.unique(np.concatenate(arrays))
            for node, arrays in probes.items()
            if any(np.size(array) for array in arrays)
        }
        nodes = tuple(self._fractions)
        self._row = {node: row for row, node in enumerate(nodes)}
        self._designs = {node: design_factory(node) for node in nodes}
        designs = tuple(self._designs.values())
        used = tuple(
            {process: None for d in designs for process in d.processes}
        )
        self._block = {(None, 0): 0}
        if with_cas:
            for node in used:
                for sign in (+1, -1):
                    self._block[(node, sign)] = len(self._block)
        width = max(len(known) for known in self._fractions.values())
        chips = n_chips * np.array([
            np.pad(known, (0, width - len(known)), mode="edge")
            for known in self._fractions.values()
        ])
        conditions = model.foundry.conditions
        capacity = {}
        for node in used:
            column = np.full(len(self._block), conditions.capacity_for(node))
            if with_cas:
                _, plus, minus = self.perturbation(node)
                column[self._block[(node, +1)]] = plus
                column[self._block[(node, -1)]] = minus
            capacity[node] = np.repeat(column, width)
        self._weeks = evaluate(
            model,
            designs,
            np.tile(chips, len(self._block)),
            ("ttm",),
            capacity=capacity,
        ).ttm.total_weeks[0].reshape(len(designs), len(self._block), width)
        self._costs = None
        if with_cost:
            self._costs = evaluate(
                model, designs, chips, ("cost",), cost_model=cost_model
            ).cost.total_usd[0]

    def perturbation(self, node: str) -> Tuple[float, float, float]:
        """(absolute step, fraction at +step, fraction at -step).

        Mirrors the scalar :func:`~repro.multiprocess.split.split_cas`:
        the node's rate is ``capacity_for(node) * max_rate``, the step is
        ``rate * relative_step``, and the perturbed rate goes back into
        the model as a capacity *fraction* (the same rate -> fraction ->
        rate round trip, so kinks land on identical abscissae).
        """
        if node not in self._perturbations:
            conditions = self.model.foundry.conditions
            fraction = conditions.capacity_for(node)
            if fraction <= 0.0:
                raise InvalidParameterError(
                    f"cannot evaluate CAS with zero capacity on {node!r}"
                )
            max_rate = self.model.foundry.technology.require_production(
                node
            ).max_wafer_rate_per_week
            rate = fraction * max_rate
            step = rate * self.relative_step
            self._perturbations[node] = (
                step,
                (rate + step) / max_rate,
                (rate - step) / max_rate,
            )
        return self._perturbations[node]

    def _columns(self, node: str, fractions: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._fractions[node], fractions)

    def totals(
        self,
        node: str,
        fractions: np.ndarray,
        perturb: Optional[str] = None,
        sign: int = 0,
    ) -> np.ndarray:
        """Line completion weeks for ``fractions`` of the order on ``node``.

        ``perturb``/``sign`` read the line with ``perturb``'s wafer rate
        displaced by one CAS step. A line whose ported design never
        fabricates on ``perturb`` reads its base block, which is exactly
        the scalar behavior: the perturbed market conditions only move
        lines that use the node.
        """
        block = 0
        if perturb is not None and perturb in self._designs[node].processes:
            block = self._block[(perturb, sign)]
        return self._weeks[
            self._row[node], block, self._columns(node, fractions)
        ]

    def costs(self, node: str, fractions: np.ndarray) -> np.ndarray:
        """Line chip-creation cost (node NRE + recurring) per fraction."""
        return self._costs[self._row[node], self._columns(node, fractions)]


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
        panels are needed; matches ``evaluate_split(..., with_cas=False)``.
    """
    pair_list: List[Tuple[str, str]] = [(str(p), str(q)) for p, q in pairs]
    if not pair_list:
        raise InvalidParameterError("need at least one node pair")
    if n_chips <= 0.0:
        raise InvalidParameterError(
            f"number of final chips must be positive, got {n_chips}"
        )
    if not 0.0 < relative_step < 1.0:
        raise InvalidParameterError(
            f"relative step must be in (0, 1), got {relative_step}"
        )
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
        cost_model,
        n_chips,
        relative_step,
        probes,
        with_cas=with_cas,
    )
    n_pairs, n_splits = splits.shape
    ttm = np.empty((n_pairs, n_splits))
    cost = np.empty((n_pairs, n_splits))
    cas = np.zeros((n_pairs, n_splits))
    line_primary = np.empty((n_pairs, n_splits))
    line_secondary = np.full((n_pairs, n_splits), np.nan)

    for i, (primary, secondary) in enumerate(pair_list):
        prim_frac = np.ascontiguousarray(splits[i])
        two = ~single[i]
        has_two = bool(two.any())
        sec_frac = np.ascontiguousarray(1.0 - prim_frac[two])

        lp = engine.totals(primary, prim_frac)
        line_primary[i] = lp
        row_ttm = lp.copy()
        row_cost = engine.costs(primary, prim_frac).copy()
        if has_two:
            lq = engine.totals(secondary, sec_frac)
            line_secondary[i, two] = lq
            row_ttm[two] = np.maximum(lp[two], lq)
            row_cost[two] = row_cost[two] + engine.costs(secondary, sec_frac)
        ttm[i] = row_ttm
        cost[i] = row_cost

        if not with_cas:
            continue
        # Eq. 8: each node's rate perturbation only moves its own
        # line(s); the max over lines couples them exactly as the
        # scalar ``split_cas`` central difference does.
        step_p, _, _ = engine.perturbation(primary)
        upper = engine.totals(primary, prim_frac, perturb=primary, sign=+1)
        lower = engine.totals(primary, prim_frac, perturb=primary, sign=-1)
        if has_two:
            upper = upper.copy()
            lower = lower.copy()
            upper[two] = np.maximum(
                upper[two],
                engine.totals(secondary, sec_frac, perturb=primary, sign=+1),
            )
            lower[two] = np.maximum(
                lower[two],
                engine.totals(secondary, sec_frac, perturb=primary, sign=-1),
            )
        total_sensitivity = np.abs((upper - lower) / (2.0 * step_p))
        if has_two:
            step_q, _, _ = engine.perturbation(secondary)
            upper_q = np.maximum(
                engine.totals(primary, prim_frac, perturb=secondary, sign=+1)[
                    two
                ],
                engine.totals(secondary, sec_frac, perturb=secondary, sign=+1),
            )
            lower_q = np.maximum(
                engine.totals(primary, prim_frac, perturb=secondary, sign=-1)[
                    two
                ],
                engine.totals(secondary, sec_frac, perturb=secondary, sign=-1),
            )
            total_sensitivity[two] = total_sensitivity[two] + np.abs(
                (upper_q - lower_q) / (2.0 * step_q)
            )
        if not np.all(total_sensitivity > 0.0):
            raise InvalidParameterError(
                "split has zero TTM sensitivity; CAS is unbounded"
            )
        cas[i] = 1.0 / total_sensitivity

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


def refine_split_grid(
    result: SplitGridResult, points: int = DEFAULT_REFINE_POINTS
) -> np.ndarray:
    """Per-pair fine grids bracketing each coarse optimum.

    For every pair, spans the interval between the CAS-optimal split's
    two grid neighbors with ``points`` evenly spaced values — a second
    :func:`batch_split` call over the returned ``(n_pairs, points)``
    matrix resolves the optimum to roughly ``spacing / (points - 1)``
    split resolution. Rows that only ever see the single-process plan
    (diagonal pairs) stay pinned at 1.0.
    """
    if points < 2:
        raise InvalidParameterError(
            f"refinement needs at least 2 points, got {points}"
        )
    fine = np.empty((result.n_pairs, points))
    for i in range(result.n_pairs):
        if bool(result.single_mask[i].all()):
            fine[i] = 1.0
            continue
        fine[i] = np.linspace(*_bracket(result, i), points)
    return fine


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
       tolerance 1e-9) — rows where any scenario bends fall back to the
       :func:`refine_split_grid` fine grid for that pair, and so do
       brackets reaching split 1.0, where the secondary line vanishes
       (no line is probed at a zero fraction);
    3. fit the affine coefficients and enumerate every interior
       crossing and sensitivity zero as a candidate split.

    The returned ``(n_pairs, n_candidates)`` matrix (rows padded with
    their last candidate, diagonal pairs pinned at 1.0) feeds a second
    :func:`batch_split` call exactly like the fine grid does — but the
    best cell is now the bracket's true optimum, not a 0.1%-grid
    approximation of it.
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
            design_factory,
            model,
            cost_model,
            result.n_chips,
            relative_step,
            probes,
            with_cost=False,
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
        for perturb, sign in scenarios:
            weeks_p = engine.totals(primary, at, perturb, sign)
            weeks_q = engine.totals(secondary, 1.0 - at, perturb, sign)
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


def _resolved_fractions(
    nodes: Sequence[str],
    capacity: Optional[CapacityLike],
    model: TTMModel,
) -> Dict[str, ArrayLike]:
    """Per-node capacity fractions under the sampled ``capacity`` input."""
    conditions = model.foundry.conditions
    resolved: Dict[str, ArrayLike] = {}
    for node in nodes:
        if isinstance(capacity, Mapping):
            fraction: ArrayLike = (
                capacity[node]
                if node in capacity
                else conditions.capacity_for(node)
            )
        elif capacity is not None:
            fraction = capacity
        else:
            fraction = conditions.capacity_for(node)
        resolved[node] = fraction
    return resolved


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
    :func:`~repro.engine.scenario.evaluate`, and each capacity map is
    one batched call over every production line — a 10k-sample
    robustness study of a two-node plan costs six array evaluations
    (five capacity maps and one cost call), not 10k scalar ones.

    CAS is evaluated per sample: each allocation node's *effective*
    rate (sampled capacity x scaled max rate) is displaced by
    ``relative_step`` in both directions and the max-coupled line
    totals are centrally differenced, mirroring
    :func:`~repro.multiprocess.split.split_cas` under each draw's
    market conditions.
    """
    if not 0.0 < relative_step < 1.0:
        raise InvalidParameterError(
            f"relative step must be in (0, 1), got {relative_step}"
        )
    quantities = _as_positive_array(n_chips, "number of final chips")
    allocations = plan.allocations
    designs = {node: plan.design_factory(node) for node in allocations}
    involved: List[str] = []
    for design in designs.values():
        for process in design.processes:
            if process not in involved:
                involved.append(process)
    fractions = _resolved_fractions(involved, capacity, model)
    sampled = {
        "queue_weeks": queue_weeks,
        "d0_scale": d0_scale,
        "wafer_rate_scale": wafer_rate_scale,
    }

    # One row per production line: a (lines, samples) or (lines, 1)
    # per-design demand, so a scalar demand is not read as a sample axis.
    line_designs = tuple(designs.values())
    line_chips = np.stack(
        [
            np.atleast_1d(quantities * fraction)
            for fraction in allocations.values()
        ]
    )

    def line_totals(capacity_map: Mapping[str, ArrayLike]) -> np.ndarray:
        """Every line's completion weeks under one capacity map."""
        return evaluate(
            model,
            line_designs,
            line_chips,
            ("ttm",),
            capacity=dict(capacity_map),
            **sampled,
        ).ttm.total_weeks[0]

    line_weeks = line_totals(fractions)
    ttm = line_weeks.max(axis=0)

    cost_usd = None
    if cost_model is not None:
        cost_total = evaluate(
            model,
            line_designs,
            line_chips,
            ("cost",),
            d0_scale=d0_scale,
            cost_model=cost_model,
        ).cost.total_usd[0].sum(axis=0)
        cost_usd = np.broadcast_to(cost_total, np.shape(ttm))

    cas = np.zeros(np.shape(ttm))
    if with_cas:
        rate_scale: ArrayLike = 1.0
        if wafer_rate_scale is not None:
            rate_scale = _as_positive_array(
                wafer_rate_scale, "wafer rate scale"
            )
        total_sensitivity: Optional[np.ndarray] = None
        for node in allocations:
            fraction = np.asarray(fractions[node], dtype=float)
            if not np.all(fraction > 0.0):
                raise InvalidParameterError(
                    f"cannot evaluate CAS with zero capacity on {node!r}"
                )
            scaled_max = (
                model.foundry.technology.require_production(
                    node
                ).max_wafer_rate_per_week
                * rate_scale
            )
            rate = fraction * scaled_max
            step = rate * relative_step
            perturbed: Dict[int, np.ndarray] = {}
            for sign in (+1, -1):
                displaced = dict(fractions)
                displaced[node] = (rate + sign * step) / scaled_max
                perturbed[sign] = line_totals(displaced).max(axis=0)
            sensitivity = np.abs(
                (perturbed[+1] - perturbed[-1]) / (2.0 * step)
            )
            total_sensitivity = (
                sensitivity
                if total_sensitivity is None
                else total_sensitivity + sensitivity
            )
        if not np.all(total_sensitivity > 0.0):
            raise InvalidParameterError(
                "split has zero TTM sensitivity; CAS is unbounded"
            )
        cas = 1.0 / total_sensitivity

    shape = np.broadcast_shapes(np.shape(ttm), quantities.shape)
    return SplitSampleResult(
        primary=plan.primary,
        secondary=plan.secondary,
        split=plan.split,
        n_chips=np.broadcast_to(quantities, shape),
        ttm_weeks=np.broadcast_to(np.asarray(ttm, dtype=float), shape),
        cas=np.broadcast_to(np.asarray(cas, dtype=float), shape),
        cost_usd=(
            None
            if cost_usd is None
            else np.broadcast_to(cost_usd, shape)
        ),
        line_weeks={
            node: np.broadcast_to(weeks, shape)
            for node, weeks in zip(allocations, line_weeks)
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
    "refine_split_grid",
]
