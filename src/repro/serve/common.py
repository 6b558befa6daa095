"""What the serve worker and the shard router both read, without NumPy.

``ttm-cas serve --workers N`` runs two roles in separate processes: the
workers (:mod:`repro.serve.server`) evaluate the model, and the router
(:mod:`repro.serve.shard`) only reads each request's JSON to pick a
worker. Both read a body through one function, :func:`read_request`:
it checks and defaults every field but the designs and returns the
batcher's group key. The router routes on that key as it is, not on a
copy of it, so a coalescing group always lands on one worker, and a
request default lives in one place. The endpoints, the wire encoding
and the server settings live here too, in a module that imports
nothing NumPy-backed; the router process never loads the engine.
:mod:`repro.serve.protocol` and :mod:`repro.serve.server` re-export
these names under their old paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..engine.knobs import POINT_METRICS, knob_signature

#: Endpoints served through the coalescing batcher.
BATCHED_ENDPOINTS: Tuple[str, ...] = ("evaluate", "mc", "splits", "scenarios")

#: Defaults of every omittable request field (``design`` is required
#: except on /splits), read by :func:`read_request` only.
REQUEST_DEFAULTS: Mapping[str, Any] = MappingProxyType(
    {
        "scenario": "nominal",
        "n_chips": 1e7,
        "design": "a11",
        "refine": False,
        "with_cas": True,
        "samples": 1024,
        "seed": 0,
        "with_cost": True,
        "correlated": False,
        "variation": 0.1,
        "queue_weeks": 2.0,
        "capacity": 0.9,
    }
)

#: The supply-spec knobs of a study, in group-key order.
SPEC_KNOBS: Tuple[str, ...] = (
    "n_chips", "variation", "queue_weeks", "capacity",
)


class BadRequestError(Exception):
    """A request the protocol rejects; maps to HTTP 400."""

    def __init__(self, message: str, code: str = "invalid_request") -> None:
        super().__init__(message)
        self.code = code


def canonical_json(value: Any) -> bytes:
    """The canonical wire encoding: sorted keys, no whitespace, UTF-8."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def error_body(code: str, message: str) -> bytes:
    """The structured error payload every non-2xx response carries."""
    return canonical_json({"error": {"code": code, "message": message}})


# -- reading: body -> (group key, fields) --------------------------------------


def _require_mapping(body: Any) -> Mapping[str, Any]:
    if not isinstance(body, Mapping):
        raise BadRequestError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def _number(
    body: Mapping[str, Any], key: str, default: Optional[float] = None
) -> Optional[float]:
    if key not in body:
        return default
    value = body[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(
            f"field {key!r} must be a number, got {value!r}"
        )
    return float(value)


def _integer(
    body: Mapping[str, Any], key: str, default: int
) -> int:
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(
            f"field {key!r} must be an integer, got {value!r}"
        )
    return value


def _capacity(body: Mapping[str, Any]) -> Optional[Any]:
    if "capacity" not in body:
        return None
    value = body["capacity"]
    if isinstance(value, Mapping):
        out: Dict[str, float] = {}
        for node, fraction in value.items():
            if isinstance(fraction, bool) or not isinstance(
                fraction, (int, float)
            ):
                raise BadRequestError(
                    f"capacity for node {node!r} must be a number, "
                    f"got {fraction!r}"
                )
            out[str(node)] = float(fraction)
        if not out:
            raise BadRequestError("capacity mapping must not be empty")
        return out
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(
            f"field 'capacity' must be a number or a node mapping, "
            f"got {value!r}"
        )
    return float(value)


def _n_chips(body: Mapping[str, Any]) -> float:
    n_chips = _number(body, "n_chips", REQUEST_DEFAULTS["n_chips"])
    if n_chips <= 0:  # type: ignore[operator]
        raise BadRequestError(f"'n_chips' must be positive, got {n_chips}")
    return n_chips  # type: ignore[return-value]


def _flag(body: Mapping[str, Any], key: str) -> bool:
    value = body.get(key, REQUEST_DEFAULTS[key])
    if not isinstance(value, bool):
        raise BadRequestError(
            f"field {key!r} must be true or false, got {value!r}"
        )
    return value


def _design(body: Mapping[str, Any]) -> Any:
    if "design" not in body:
        raise BadRequestError("missing required field 'design'")
    return body["design"]


def _scenario(body: Mapping[str, Any]) -> str:
    value = body.get("scenario", REQUEST_DEFAULTS["scenario"])
    if not isinstance(value, str):
        raise BadRequestError(
            f"field 'scenario' must be a string, got {value!r}"
        )
    return value


def _metrics(body: Mapping[str, Any]) -> Tuple[str, ...]:
    value = body.get("metrics")
    if value is None:
        return POINT_METRICS
    if not isinstance(value, (list, tuple)) or not value:
        raise BadRequestError(
            "field 'metrics' must be a non-empty list of metric names"
        )
    metrics = []
    for name in value:
        if name not in POINT_METRICS:
            raise BadRequestError(
                f"unknown metric {name!r}; choose from {list(POINT_METRICS)}"
            )
        if name not in metrics:
            metrics.append(name)
    return tuple(metrics)


def _selector(body: Mapping[str, Any]) -> Tuple[str, ...]:
    value = body.get("scenarios")
    if value is None:
        return ("all",)
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and value and all(
        isinstance(item, str) for item in value
    ):
        return tuple(value)
    raise BadRequestError(
        "field 'scenarios' must be a selector string or a non-empty "
        f"list of selector strings, got {value!r}"
    )


def _read_evaluate(body: Mapping[str, Any]) -> Tuple[List[Any], Dict[str, Any]]:
    """A point request: requests fuse when their supply knobs have one
    shape (:func:`~repro.engine.knobs.knob_signature`); the designs and
    the knob values ride along the fused call's axes."""
    fields = {
        "design": _design(body),
        "scenario": _scenario(body),
        "n_chips": _n_chips(body),
        "capacity": _capacity(body),
        "queue_weeks": _number(body, "queue_weeks"),
        "d0_scale": _number(body, "d0_scale"),
        "wafer_rate_scale": _number(body, "wafer_rate_scale"),
        "metrics": _metrics(body),
    }
    signature = knob_signature(
        fields["capacity"],
        fields["queue_weeks"],
        fields["d0_scale"],
        fields["wafer_rate_scale"],
    )
    return [fields["scenario"], signature], fields


def _read_study(
    body: Mapping[str, Any], stress: bool
) -> Tuple[List[Any], Dict[str, Any]]:
    """An /mc or (``stress``) /scenarios body. The key pins everything
    that shapes the shared draw (scenario, stress selector, sample
    count, seed, sampling mode, spec knobs), so a group's requests
    differ only along the design axis, which one study fuses."""
    fields: Dict[str, Any] = {
        "design": _design(body), "scenario": _scenario(body)
    }
    key: List[Any] = [fields["scenario"]]
    if stress:
        fields["selector"] = _selector(body)
        key.append(fields["selector"])
    samples = _integer(body, "samples", REQUEST_DEFAULTS["samples"])
    if samples <= 0:
        raise BadRequestError(f"'samples' must be positive, got {samples}")
    flags = {"with_cost": _flag(body, "with_cost")}
    if stress:
        flags["correlated"] = _flag(body, "correlated")
        if flags["correlated"] and samples % 2:
            raise BadRequestError(
                "correlated sampling is antithetic and needs an even "
                f"'samples', got {samples}"
            )
    seed = _integer(body, "seed", REQUEST_DEFAULTS["seed"])
    knobs = {"n_chips": _n_chips(body)}
    for name in SPEC_KNOBS[1:]:
        knobs[name] = _number(body, name, REQUEST_DEFAULTS[name])
    fields.update(samples=samples, seed=seed, spec_knobs=knobs, **flags)
    return [*key, samples, seed, *flags.values(), *knobs.values()], fields


def _read_splits(body: Mapping[str, Any]) -> Tuple[List[Any], Dict[str, Any]]:
    """A split sweep: nothing to fuse, so the key is the whole request
    and a group is single-flight deduplication."""
    pairs = body.get("pairs")
    if not isinstance(pairs, (list, tuple)) or not pairs:
        raise BadRequestError(
            "field 'pairs' must be a non-empty list of [primary, secondary] "
            "node pairs"
        )
    for item in pairs:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(node, str) for node in item)
        ):
            raise BadRequestError(
                "each entry of field 'pairs' must be a [primary, secondary] "
                f"list of node names, got {item!r}"
            )
    # The design names a single-process library; the worker resolves it.
    spec = body.get("design", REQUEST_DEFAULTS["design"])
    library, cores = spec, None
    if not isinstance(spec, str):
        spec = _require_mapping(spec)
        unknown = set(spec) - {"library", "cores"}
        if unknown:
            raise BadRequestError(
                f"unknown split-design keys {sorted(unknown)}"
            )
        library = spec.get("library")
        if "cores" in spec:
            cores = _integer(spec, "cores", 0)
    fields = {
        "pairs": [(a, b) for a, b in pairs],
        "library": library,
        "cores": cores,
        "design_label": (
            str(library) if cores is None else f"{library}:{cores}"
        ),
        "scenario": _scenario(body),
        "n_chips": _number(body, "n_chips", REQUEST_DEFAULTS["n_chips"]),
        "refine": _flag(body, "refine"),
        "with_cas": _flag(body, "with_cas"),
    }
    key = [
        fields["scenario"],
        fields["design_label"],
        fields["pairs"],
        fields["n_chips"],
        fields["refine"],
        fields["with_cas"],
    ]
    return key, fields


_READERS = {
    "evaluate": _read_evaluate,
    "mc": lambda body: _read_study(body, stress=False),
    "scenarios": lambda body: _read_study(body, stress=True),
    "splits": _read_splits,
}


def read_request(
    endpoint: str, body: Any
) -> Tuple[Tuple[str, bytes], Dict[str, Any]]:
    """Check and default one JSON body of a batched endpoint.

    Returns the batcher's group key, ``(endpoint, key bytes)``, and the
    body's fields. Two requests share a key exactly when the batcher
    may answer both from one engine call; the key bytes are canonical
    JSON, so spelling a default out, or writing ``1e7`` for
    ``10000000``, never changes them. Every field but the designs is checked here, without NumPy:
    the worker resolves the design(s), the market scenario and the
    stress set (:func:`repro.serve.protocol.parse_request`), and the
    shard router routes on the key bytes as they are.
    """
    reader = _READERS.get(endpoint)
    if reader is None:
        raise BadRequestError(f"no batched endpoint {endpoint!r}")
    key, fields = reader(_require_mapping(body))
    return (endpoint, canonical_json([endpoint, *key])), fields


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`~repro.serve.server.EvalServer` (CLI
    flags map 1:1).

    ``batch_threads`` sizes the thread pool that executes fused batches
    (the CLI's ``--batch-threads``; process-level parallelism is the
    shard supervisor's ``--workers``). ``worker_id`` is set only when
    this server runs as one shard worker — it adds worker identity to
    ``/healthz`` and ``/debug/*`` and changes nothing else.

    Observability (all opt-in): ``trace`` installs a bounded process
    tracer at startup (``trace_out`` writes the Chrome trace at stop —
    left empty for shard workers, whose spans the supervisor collects
    over ``/debug/trace`` instead); ``log_json`` appends one JSON line
    per request; ``profile_hz`` starts the sampling profiler
    (``profile_out`` writes collapsed stacks at stop).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 32
    max_queue: int = 256
    batch_threads: int = 1
    deadline_ms: float = 30_000.0
    max_body_bytes: int = 1_048_576
    worker_id: Optional[int] = None
    trace: bool = False
    trace_out: str = ""
    log_json: str = ""
    slo_window_s: float = 300.0
    profile_hz: float = 0.0
    profile_out: str = ""

    def __post_init__(self) -> None:
        if self.deadline_ms < 0:
            raise ValueError(
                f"deadline must be >= 0 ms (0 disables), got "
                f"{self.deadline_ms}"
            )
        if self.slo_window_s <= 0:
            raise ValueError(
                f"SLO window must be > 0 s, got {self.slo_window_s}"
            )
        if self.profile_hz < 0:
            raise ValueError(
                f"profile rate must be >= 0 Hz (0 disables), got "
                f"{self.profile_hz}"
            )


__all__ = [
    "BATCHED_ENDPOINTS",
    "BadRequestError",
    "REQUEST_DEFAULTS",
    "SPEC_KNOBS",
    "ServerConfig",
    "canonical_json",
    "error_body",
    "read_request",
]
