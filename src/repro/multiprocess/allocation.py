"""K-way production allocation (generalizing Sec. 7 beyond two nodes).

The paper's methodology splits one architecture across *two* process
nodes; nothing in the model limits it to two. This module allocates a
production run across any set of nodes:

* :func:`balance_allocation` — the TTM-optimal split. Because each line's
  TTM is affine in its share (tapeout + latency + share * n / throughput)
  and the run finishes when the slowest line does, the minimax allocation
  equalizes line completion times; a water-filling pass computes it in
  closed form, dropping nodes whose fixed time (tapeout + latencies)
  already exceeds the balanced finish.
* :func:`evaluate_allocation` — TTM / cost / CAS of an arbitrary share
  vector: the one scalar plan evaluator, which also scores a two-node
  :class:`~repro.multiprocess.split.ProductionSplit` through its
  ``allocations``.
* :func:`greedy_node_selection` — picks the best subset of at most
  ``max_nodes`` nodes by marginal TTM improvement, answering "is a third
  source worth it?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from ..agility.derivative import DEFAULT_RELATIVE_STEP, ttm_rate_sensitivity
from ..cost.model import CostModel
from ..errors import InvalidParameterError
from ..ttm.model import TTMModel
from .split import DesignFactory


@dataclass(frozen=True)
class AllocationResult:
    """A k-way production plan and its metrics."""

    shares: Mapping[str, float]
    n_chips: float
    ttm_weeks: float
    cost_usd: float
    cas: float
    line_weeks: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "shares", dict(self.shares))
        object.__setattr__(self, "line_weeks", dict(self.line_weeks))

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Nodes carrying non-zero volume."""
        return tuple(self.shares)

    @property
    def cas_normalized(self) -> float:
        """CAS in the figures' kilo-wafer units."""
        return self.cas / 1000.0


def _line_fixed_and_rate(
    design_factory: DesignFactory,
    process: str,
    model: TTMModel,
    n_chips: float,
) -> Tuple[float, float]:
    """(fixed weeks, weeks per unit share) of one production line.

    The line's TTM is affine in its share s:
    ``T(s) = fixed + s * slope`` where slope covers wafer production,
    testing and assembly (all linear in volume) and fixed covers design,
    tapeout, queue, latencies. Measured with two evaluations.
    """
    design = design_factory(process)
    probe = 1.0e-9  # near-zero share isolates the fixed part
    t_small = model.total_weeks(design, n_chips * probe)
    t_full = model.total_weeks(design, n_chips)
    slope = (t_full - t_small) / (1.0 - probe)
    return t_small, max(slope, 0.0)


def balance_allocation(
    design_factory: DesignFactory,
    processes: Sequence[str],
    model: TTMModel,
    n_chips: float,
) -> Dict[str, float]:
    """The minimax (TTM-optimal) share vector over the given nodes.

    Solves ``min_T`` subject to ``sum_i max(0, (T - fixed_i)/slope_i) = 1``
    by bisection on the common finish time T. Nodes whose fixed time
    exceeds the balanced T receive zero share (using them at all would
    only delay the order).
    """
    if not processes:
        raise InvalidParameterError("need at least one process node")
    if len(set(processes)) != len(processes):
        raise InvalidParameterError(f"duplicate nodes in {processes}")
    lines = {
        process: _line_fixed_and_rate(design_factory, process, model, n_chips)
        for process in processes
    }

    def total_share(finish: float) -> float:
        share = 0.0
        for fixed, slope in lines.values():
            if finish <= fixed:
                continue
            if slope <= 0.0:
                # A capacity-unconstrained line absorbs everything.
                return float("inf")
            share += (finish - fixed) / slope
        return share

    low = min(fixed for fixed, _ in lines.values())
    high = max(fixed + slope for fixed, slope in lines.values())
    while total_share(high) < 1.0:
        high *= 2.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if total_share(mid) >= 1.0:
            high = mid
        else:
            low = mid
    finish = high
    shares = {}
    for process, (fixed, slope) in lines.items():
        if finish > fixed and slope > 0.0:
            shares[process] = (finish - fixed) / slope
    # Normalize away bisection residue.
    total = sum(shares.values())
    return {process: share / total for process, share in shares.items()}


def evaluate_allocation(
    design_factory: DesignFactory,
    shares: Mapping[str, float],
    model: TTMModel,
    cost_model: CostModel,
    n_chips: float,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    with_cas: bool = True,
) -> AllocationResult:
    """TTM / cost / CAS of an arbitrary k-way share vector."""
    if not shares:
        raise InvalidParameterError("share vector must be non-empty")
    total = sum(shares.values())
    if abs(total - 1.0) > 1e-6:
        raise InvalidParameterError(f"shares must sum to 1, got {total}")
    if any(share <= 0.0 for share in shares.values()):
        raise InvalidParameterError("all shares must be positive")

    def ttm_under(evaluation_model: TTMModel) -> float:
        return max(
            evaluation_model.total_weeks(
                design_factory(process), n_chips * share
            )
            for process, share in shares.items()
        )

    line_weeks = {
        process: model.total_weeks(design_factory(process), n_chips * share)
        for process, share in shares.items()
    }
    cost = sum(
        cost_model.total_usd(design_factory(process), n_chips * share)
        for process, share in shares.items()
    )
    cas = 0.0
    if with_cas:
        conditions = model.foundry.conditions
        sensitivity = 0.0
        for process in shares:
            node = model.foundry.technology.require_production(process)
            fraction = conditions.capacity_for(process)
            max_rate = node.max_wafer_rate_per_week

            def ttm_at_rate(rate: float, _process: str = process) -> float:
                perturbed = model.with_foundry(
                    model.foundry.with_conditions(
                        conditions.with_capacity(_process, rate / max_rate)
                    )
                )
                return ttm_under(perturbed)

            sensitivity += ttm_rate_sensitivity(
                ttm_at_rate, fraction * max_rate, relative_step
            )
        if sensitivity <= 0.0:
            raise InvalidParameterError(
                "allocation has zero TTM sensitivity; CAS is unbounded"
            )
        cas = 1.0 / sensitivity
    return AllocationResult(
        shares=shares,
        n_chips=n_chips,
        ttm_weeks=max(line_weeks.values()),
        cost_usd=cost,
        cas=cas,
        line_weeks=line_weeks,
    )


def greedy_node_selection(
    design_factory: DesignFactory,
    candidates: Sequence[str],
    model: TTMModel,
    cost_model: CostModel,
    n_chips: float,
    max_nodes: int = 3,
    min_ttm_gain_weeks: float = 0.0,
) -> List[AllocationResult]:
    """Grow the node set greedily while each addition still pays off.

    Starts from the single fastest node; at each step adds the candidate
    whose balanced allocation improves TTM the most, stopping when the
    best improvement falls to ``min_ttm_gain_weeks`` or the set reaches
    ``max_nodes``. Returns the evaluation after each accepted step, so
    callers can weigh TTM gains against the extra NRE per added node.
    """
    if max_nodes < 1:
        raise InvalidParameterError(f"max nodes must be >= 1, got {max_nodes}")
    if not candidates:
        raise InvalidParameterError("need at least one candidate node")

    def evaluate(nodes: Sequence[str]) -> AllocationResult:
        shares = balance_allocation(design_factory, nodes, model, n_chips)
        return evaluate_allocation(
            design_factory, shares, model, cost_model, n_chips
        )

    best_single = min(
        ([node] for node in candidates),
        key=lambda nodes: evaluate(nodes).ttm_weeks,
    )
    chosen = list(best_single)
    steps = [evaluate(chosen)]
    while len(chosen) < max_nodes:
        remaining = [node for node in candidates if node not in chosen]
        if not remaining:
            break
        options = [(node, evaluate(chosen + [node])) for node in remaining]
        node, result = min(options, key=lambda item: item[1].ttm_weeks)
        if steps[-1].ttm_weeks - result.ttm_weeks <= min_ttm_gain_weeks:
            break
        chosen.append(node)
        steps.append(result)
    return steps
