"""The supply-knob shape of a point request, without NumPy.

Requests can only share a fused portfolio call when their supply knobs
have the same *shape* (:mod:`repro.engine.requests`). The key of that
shape is computed both where requests are fused and where they are
routed: :func:`~repro.engine.requests.point_signature` groups them in a
serve worker's batcher, and the shard router's
:func:`~repro.serve.shard.routing_key` sends each group to one worker
straight from the JSON body. The router evaluates nothing, so the one
definition lives here, in a module that imports no NumPy.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

CapacityValue = Union[float, Mapping[str, float]]


def knob_signature(
    capacity: Optional[CapacityValue],
    queue_weeks: Optional[object],
    d0_scale: Optional[object],
    wafer_rate_scale: Optional[object],
) -> Tuple[object, ...]:
    """The supply-knob shape key shared by
    :func:`~repro.engine.requests.point_signature` and the shard router.

    Computable from raw values (the router derives it straight from the
    JSON body, without resolving designs or validating scenarios), and
    guaranteed consistent with ``point_signature``: two requests the
    batcher would group together always produce equal knob signatures,
    so a sticky router hashing this key keeps every coalescing group on
    one worker. The capacity node set is carried as a frozenset, so node
    order in the request body never splits a group.
    """
    if capacity is None:
        capacity_kind: object = "conditions"
    elif isinstance(capacity, Mapping):
        capacity_kind = frozenset(str(name) for name in capacity)
    else:
        capacity_kind = "global"
    return (
        capacity_kind,
        queue_weeks is not None,
        d0_scale is not None,
        wafer_rate_scale is not None,
    )


__all__ = ["CapacityValue", "knob_signature"]
