"""What the serve request reader needs from the engine, without NumPy.

Requests can only share a fused portfolio call when their supply knobs
have the same *shape* (:mod:`repro.engine.requests`), and a point
request may ask only for :data:`POINT_METRICS`. Both are read where
requests are fused and where they are read:
:func:`~repro.engine.requests.point_signature` checks a fused batch in
a serve worker, and :func:`~repro.serve.common.read_request` puts the
knob shape in each body's group key, which the shard router routes on
as it is. The router evaluates nothing, so the one definition of each
lives here, in a module that imports no NumPy.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

CapacityValue = Union[float, Mapping[str, float]]

#: Metric families an evaluation may ask for.
POINT_METRICS: Tuple[str, ...] = ("ttm", "cas", "cost")


def knob_signature(
    capacity: Optional[CapacityValue],
    queue_weeks: Optional[object],
    d0_scale: Optional[object],
    wafer_rate_scale: Optional[object],
) -> Tuple[object, ...]:
    """The supply-knob shape key of
    :func:`~repro.engine.requests.point_signature` and of the request
    reader's group key.

    Values are not part of it, only which knobs are set: the capacity
    argument's form (market conditions, one global fraction, or an
    override of a node set) and whether each optional scalar is present.
    The node set is carried as a sorted tuple, so node order in a
    request body never splits a group and the key encodes as JSON.
    """
    if capacity is None:
        capacity_kind: object = "conditions"
    elif isinstance(capacity, Mapping):
        capacity_kind = ("nodes", tuple(sorted({str(name) for name in capacity})))
    else:
        capacity_kind = "global"
    return (
        capacity_kind,
        queue_weeks is not None,
        d0_scale is not None,
        wafer_rate_scale is not None,
    )


__all__ = ["CapacityValue", "POINT_METRICS", "knob_signature"]
