"""Fused evaluation of independent point requests (the serve batcher's
engine entry point).

A *point request* asks for the TTM / CAS / cost of one design at one
fully specified supply point — the workload a multi-tenant evaluation
service sees from concurrent clients. Evaluating each request alone
costs a portfolio compile plus one ``(1, 1)``
:func:`~repro.engine.scenario.evaluate` call; :func:`fused_point_eval`
instead stacks a whole batch into one ``(n_designs, n_requests)`` call:

* the *design axis* holds the batch's unique designs (deduplicated by
  identity, so interned designs collapse to one row);
* the *sample axis* holds one column per request, carrying that
  request's supply knobs (``n_chips``, ``capacity``, ``queue_weeks``,
  ``d0_scale``, ``wafer_rate_scale``) as the shared 1-D sample vectors
  the evaluation call requires;
* request ``j`` reads cell ``(design_row[j], j)`` of the result.

Because the evaluation is elementwise along the sample axis
(reductions run over the node axis only) and padded node slots are
masked with exact neutrals, cell ``(d, j)`` is bit-for-bit the value a
solo ``fused_point_eval([request_j])`` call produces — the determinism
guarantee the coalescing service advertises, pinned by
``tests/serve/test_coalescing.py`` and the Hypothesis suite in
``tests/properties/test_serve_properties.py``.

Requests can only share a fused call when their supply knobs have the
same *shape*: a request overriding ``capacity`` globally cannot ride in
the same sample vector as one deferring to the market conditions.
:func:`point_signature` captures that compatibility key, and callers
fuse only requests that share it. Its body,
:func:`~repro.engine.knobs.knob_signature`, lives in a module of its own
that imports no NumPy, since the serve request reader puts it in each
body's group key, on which the batcher groups and the shard router
routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..errors import InvalidParameterError
from ..obs.trace import span
from ..ttm.model import TTMModel
from .knobs import POINT_METRICS, CapacityValue, knob_signature
from .scenario import evaluate

#: Per metric family, the fields a point result reports, in order.
_FIELDS: Dict[str, Tuple[str, ...]] = {
    "ttm": (
        "design_weeks",
        "tapeout_weeks",
        "fabrication_weeks",
        "packaging_weeks",
        "total_weeks",
        "total_wafers",
    ),
    "cas": ("cas", "cas_normalized"),
    "cost": (
        "engineering_usd",
        "fixed_usd",
        "mask_usd",
        "wafer_usd",
        "testing_usd",
        "packaging_usd",
        "nre_usd",
        "manufacturing_usd",
        "total_usd",
        "usd_per_chip",
    ),
}
#: Fields whose result attribute has another name.
_ATTRIBUTES = {"cas_normalized": "normalized"}


@dataclass(frozen=True)
class PointRequest:
    """One design evaluated at one fully specified supply point.

    ``capacity`` follows the kernel convention: ``None`` keeps the
    model's market conditions, a float is a global fraction, and a
    mapping overrides the listed nodes. ``metrics`` selects which of
    :data:`POINT_METRICS` the caller wants back.
    """

    design: ChipDesign
    n_chips: float
    capacity: Optional[CapacityValue] = None
    queue_weeks: Optional[float] = None
    d0_scale: Optional[float] = None
    wafer_rate_scale: Optional[float] = None
    metrics: Tuple[str, ...] = POINT_METRICS

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(self.metrics))
        unknown = [m for m in self.metrics if m not in POINT_METRICS]
        if unknown:
            raise InvalidParameterError(
                f"unknown point metrics {unknown}; choose from {POINT_METRICS}"
            )
        if not self.metrics:
            raise InvalidParameterError(
                "a point request must ask for at least one metric"
            )


def point_signature(request: PointRequest) -> Tuple[object, ...]:
    """The fusion-compatibility key of one request.

    Two requests may share one fused portfolio call iff their supply
    knobs occupy the same slots: the capacity argument has the same form
    (conditions-default, global, or the same overridden node set) and
    the optional scalars are present for both or neither. Values are
    deliberately *not* part of the key — they vary along the sample
    axis.
    """
    return knob_signature(
        request.capacity,
        request.queue_weeks,
        request.d0_scale,
        request.wafer_rate_scale,
    )


@dataclass(frozen=True)
class _FusedPlan:
    """The stacked sample vectors of one compatible request batch."""

    designs: Tuple[ChipDesign, ...]
    design_row: Tuple[int, ...]
    n_chips: np.ndarray
    capacity: Optional[Union[np.ndarray, Dict[str, np.ndarray]]]
    queue_weeks: Optional[np.ndarray]
    d0_scale: Optional[np.ndarray]
    wafer_rate_scale: Optional[np.ndarray]
    metrics: Tuple[str, ...] = POINT_METRICS
    extra: Dict[str, object] = field(default_factory=dict)


def _plan(requests: Sequence[PointRequest]) -> _FusedPlan:
    if not requests:
        raise InvalidParameterError("need at least one point request")
    signature = point_signature(requests[0])
    for request in requests[1:]:
        if point_signature(request) != signature:
            raise InvalidParameterError(
                "cannot fuse point requests with different supply-knob "
                f"shapes: {signature} vs {point_signature(request)}"
            )

    designs: List[ChipDesign] = []
    row_of: Dict[int, int] = {}
    design_row: List[int] = []
    for request in requests:
        row = row_of.get(id(request.design))
        if row is None:
            row = len(designs)
            row_of[id(request.design)] = row
            designs.append(request.design)
        design_row.append(row)

    n_chips = np.array([float(r.n_chips) for r in requests])

    capacity: Optional[Union[np.ndarray, Dict[str, np.ndarray]]] = None
    first = requests[0].capacity
    if isinstance(first, Mapping):
        capacity = {
            str(name): np.array(
                [float(r.capacity[name]) for r in requests]  # type: ignore[index]
            )
            for name in first
        }
    elif first is not None:
        capacity = np.array([float(r.capacity) for r in requests])  # type: ignore[arg-type]

    def _column(attribute: str) -> Optional[np.ndarray]:
        if getattr(requests[0], attribute) is None:
            return None
        return np.array(
            [float(getattr(r, attribute)) for r in requests]
        )

    metrics = tuple(
        name
        for name in POINT_METRICS
        if any(name in r.metrics for r in requests)
    )
    return _FusedPlan(
        designs=tuple(designs),
        design_row=tuple(design_row),
        n_chips=n_chips,
        capacity=capacity,
        queue_weeks=_column("queue_weeks"),
        d0_scale=_column("d0_scale"),
        wafer_rate_scale=_column("wafer_rate_scale"),
        metrics=metrics,
    )


def fused_point_eval(
    model: TTMModel,
    cost_model: Optional[CostModel],
    requests: Sequence[PointRequest],
) -> List[Dict[str, Dict[str, float]]]:
    """Evaluate a batch of compatible point requests in one fused pass.

    Returns one ``{metric_family: {field: float}}`` dict per request, in
    request order, containing exactly the families that request asked
    for. All requests must share one :func:`point_signature` (callers
    group by it); designs are deduplicated by identity, so a batch of
    ``N`` requests over ``D`` unique designs costs one portfolio compile
    (LRU-cached) plus one ``(D, N)`` evaluation of the families asked.

    A single-request call is the degenerate ``(1, 1)`` case of the same
    code path, which is what makes it the byte-identity oracle for the
    coalescing service.

    ``cost_model`` may be ``None`` when no request asks for ``"cost"``.
    """
    # The span is a shared no-op unless a tracer is installed, and it
    # wraps the whole fused batch (one span per engine dispatch, not
    # per kernel) — the instrumentation-overhead bound is untouched.
    with span(
        "engine.fused_point_eval",
        requests=len(requests),
        designs=len({id(request.design) for request in requests}),
    ):
        return _fused_point_eval_body(model, cost_model, requests)


def _fused_point_eval_body(
    model: TTMModel,
    cost_model: Optional[CostModel],
    requests: Sequence[PointRequest],
) -> List[Dict[str, Dict[str, float]]]:
    """The fused pass itself, hoisted to keep the span wrapper flat."""
    plan = _plan(requests)
    evaluation = evaluate(
        model,
        plan.designs,
        plan.n_chips,
        plan.metrics,
        capacity=plan.capacity,
        queue_weeks=plan.queue_weeks,
        d0_scale=plan.d0_scale,
        wafer_rate_scale=plan.wafer_rate_scale,
        cost_model=cost_model,
    )
    shape = (len(plan.designs), len(requests))

    def plane(values: np.ndarray) -> np.ndarray:
        # Per-design fields are (designs,); the rest are scenario 0 of
        # the (scenarios, designs, requests) cube.
        return np.broadcast_to(
            values[:, None] if values.ndim == 1 else values[0], shape
        )

    families = {
        family: {
            name: plane(
                getattr(
                    getattr(evaluation, family), _ATTRIBUTES.get(name, name)
                )
            )
            for name in _FIELDS[family]
        }
        for family in plan.metrics
    }

    results: List[Dict[str, Dict[str, float]]] = []
    for j, request in enumerate(requests):
        row = plan.design_row[j]
        cell: Dict[str, Dict[str, float]] = {}
        for family in request.metrics:
            fields = families[family]
            cell[family] = {
                name: float(values[row, j])
                for name, values in fields.items()
            }
        results.append(cell)
    return results


__all__ = [
    "POINT_METRICS",
    "PointRequest",
    "fused_point_eval",
    "knob_signature",
    "point_signature",
]
