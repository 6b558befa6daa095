"""Request parsing, shared state, and batch execution for repro.serve.

This module is the server's *pure* core: it turns JSON request bodies
into batcher payloads (:func:`parse_request`) and executes fused batches
of them (:func:`execute_batch`) — no sockets, no asyncio — so the whole
protocol is unit-testable without a running server.

Determinism and identity
------------------------
The engine's invariant LRU is identity-keyed: two structurally equal
``ChipDesign`` objects are different cache entries. Every
``TechnologyDatabase.default()`` call returns the one process-wide
database, but each request builds its designs anew from JSON, so a
service that kept no state would still recompile invariants on every
call *and* lose the fused-batch design dedup. ``ServeState`` prevents
both: one technology database for the process, one memoized
``TTMModel`` per scenario, one cost model, and an interning cache that
maps each design spec's canonical JSON to a single ``ChipDesign``
instance reused across requests.

Responses are rendered with :func:`canonical_json` (sorted keys, no
whitespace), and every response body is a pure function of its own
request plus server state — batch metadata travels in HTTP headers —
which is what makes "coalesced == solo, byte for byte" testable.

The names the shard router reads as well (the endpoints, the request
defaults, the error type and body, the wire encoding) are defined in
:mod:`repro.serve.common`, which imports no NumPy, and re-exported here.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..analysis.export import to_jsonable
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..design.library import a11, raven_multicore, zen2, zen2_monolithic
from ..design.serialize import design_from_dict
from ..engine.batch_split import DEFAULT_SPLIT_GRID, batch_split, refine_split_grid
from ..engine.requests import (
    POINT_METRICS,
    PointRequest,
    fused_point_eval,
    point_signature,
)
from ..errors import ReproError
from ..market import scenarios
from ..montecarlo.scenario_study import run_scenario_study
from ..montecarlo.spec import default_correlated_spec, default_supply_spec
from ..montecarlo.stress import stress_scenarios
from ..montecarlo.study import compare_designs
from ..technology.database import TechnologyDatabase
from ..ttm.model import TTMModel
from .common import (
    BATCHED_ENDPOINTS,
    REQUEST_DEFAULTS,
    SPEC_KNOBS,
    BadRequestError,
    canonical_json,
    error_body,
    normalize_stress_selector,
)

#: Cap on distinct interned designs held per server.
DESIGN_CACHE_LIMIT = 512

#: Library designs addressable by plain string. The A11 defaults to its
#: 7 nm re-release target, not the original 10 nm (which the dataset
#: models as having zero production capacity — see NodeUnavailableError);
#: this matches the ``ttm-cas mc`` default.
_NAMED_DESIGNS: Dict[str, Callable[[], ChipDesign]] = {
    "a11": partial(a11, "7nm"),
    "zen2": zen2,
    "raven": raven_multicore,
}

#: Library factories addressable via ``{"library": ..., "process": ...}``.
_LIBRARY_FACTORIES: Dict[str, Callable[..., ChipDesign]] = {
    "a11": a11,
    "zen2-monolithic": zen2_monolithic,
    "raven": raven_multicore,
}

#: Single-process factories usable by /splits (ported per node).
_SPLIT_FACTORIES: Dict[str, Callable[..., ChipDesign]] = {
    "a11": a11,
    "zen2-monolithic": zen2_monolithic,
    "raven": raven_multicore,
}


def _require_mapping(body: Any) -> Mapping[str, Any]:
    if not isinstance(body, Mapping):
        raise BadRequestError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def _number(
    body: Mapping[str, Any],
    key: str,
    default: Optional[float] = None,
    required: bool = False,
) -> Optional[float]:
    if key not in body:
        if required:
            raise BadRequestError(f"missing required field {key!r}")
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


def _spec_knobs(body: Mapping[str, Any]) -> Dict[str, Optional[float]]:
    """A study's supply-spec knobs, omitted ones from REQUEST_DEFAULTS."""
    n_chips = _number(body, "n_chips", REQUEST_DEFAULTS["n_chips"])
    if n_chips <= 0:  # type: ignore[operator]
        raise BadRequestError(f"'n_chips' must be positive, got {n_chips}")
    knobs = {"n_chips": n_chips}
    for name in SPEC_KNOBS[1:]:
        knobs[name] = _number(body, name, REQUEST_DEFAULTS[name])
    return knobs


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


class ServeState:
    """Process-wide shared state: database, models, interned designs."""

    def __init__(self, technology: Optional[TechnologyDatabase] = None) -> None:
        self.technology = technology or TechnologyDatabase.default()
        self.cost_model = CostModel.nominal(self.technology)
        self._base_model = TTMModel.nominal(self.technology)
        self._models: Dict[str, TTMModel] = {}
        self._designs: Dict[bytes, ChipDesign] = {}

    def model_for(self, scenario: str) -> TTMModel:
        """The memoized TTM model under one named market scenario."""
        model = self._models.get(scenario)
        if model is None:
            try:
                conditions = scenarios.by_name(scenario)
            except KeyError:
                raise BadRequestError(
                    f"unknown scenario {scenario!r}; "
                    f"choose from {sorted(scenarios.SCENARIOS)}"
                ) from None
            model = self._base_model.with_foundry(
                self._base_model.foundry.with_conditions(conditions)
            )
            self._models[scenario] = model
        return model

    def resolve_design(self, spec: Any) -> ChipDesign:
        """Intern one design spec (string, library dict, or inline dict).

        Identical specs always return the *same object*, so the
        invariant LRU and the fused batcher's design dedup both see one
        design, not N copies.
        """
        key = canonical_json(spec)
        design = self._designs.get(key)
        if design is not None:
            return design
        design = self._build_design(spec)
        if len(self._designs) >= DESIGN_CACHE_LIMIT:
            self._designs.pop(next(iter(self._designs)))
        self._designs[key] = design
        return design

    def _build_design(self, spec: Any) -> ChipDesign:
        if isinstance(spec, str):
            factory = _NAMED_DESIGNS.get(spec)
            if factory is None:
                raise BadRequestError(
                    f"unknown design {spec!r}; named designs are "
                    f"{sorted(_NAMED_DESIGNS)} (or pass a library/inline "
                    "design object)"
                )
            return factory()
        spec = _require_mapping(spec)
        if "library" in spec:
            library = spec["library"]
            factory = _LIBRARY_FACTORIES.get(library)
            if factory is None:
                raise BadRequestError(
                    f"unknown design library {library!r}; "
                    f"choose from {sorted(_LIBRARY_FACTORIES)}"
                )
            kwargs: Dict[str, Any] = {}
            if "process" in spec:
                kwargs["process"] = str(spec["process"])
            elif library == "zen2-monolithic":
                raise BadRequestError(
                    "design library 'zen2-monolithic' requires 'process'"
                )
            if "cores" in spec:
                if library != "raven":
                    raise BadRequestError(
                        "'cores' only applies to the 'raven' library"
                    )
                kwargs["cores"] = _integer(spec, "cores", 16)
            extra = set(spec) - {"library", "process", "cores"}
            if extra:
                raise BadRequestError(
                    f"unknown design keys {sorted(extra)}"
                )
            try:
                return factory(**kwargs)
            except ReproError as error:
                raise BadRequestError(str(error)) from None
        if "dies" in spec:
            try:
                return design_from_dict(spec)
            except ReproError as error:
                raise BadRequestError(str(error)) from None
        raise BadRequestError(
            "design must be a known name, a {'library': ...} reference, "
            "or an inline design object with 'dies'"
        )

    def split_factory(self, spec: Any) -> Tuple[str, Callable[[str], ChipDesign]]:
        """A (label, node -> design) factory for the /splits endpoint."""
        if isinstance(spec, str):
            name, extra = spec, {}
        else:
            mapping = _require_mapping(spec)
            name = mapping.get("library")
            extra = {
                key: mapping[key] for key in mapping if key != "library"
            }
            unknown = set(extra) - {"cores"}
            if unknown:
                raise BadRequestError(
                    f"unknown split-design keys {sorted(unknown)}"
                )
        factory = _SPLIT_FACTORIES.get(name)  # type: ignore[arg-type]
        if factory is None:
            raise BadRequestError(
                f"split designs must name a single-process library "
                f"({sorted(_SPLIT_FACTORIES)}), got {name!r}"
            )
        if "cores" in extra:
            if name != "raven":
                raise BadRequestError(
                    "'cores' only applies to the 'raven' library"
                )
            cores = extra["cores"]
            if isinstance(cores, bool) or not isinstance(cores, int):
                raise BadRequestError(
                    f"field 'cores' must be an integer, got {cores!r}"
                )
            return f"{name}:{cores}", partial(factory, cores=cores)
        return str(name), factory


# -- parsing: body -> (group key, payload) ------------------------------------


def parse_evaluate(
    state: ServeState, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Parse one /evaluate body into its batcher (key, payload)."""
    body = _require_mapping(body)
    if "design" not in body:
        raise BadRequestError("missing required field 'design'")
    design = state.resolve_design(body["design"])
    scenario = str(body.get("scenario", REQUEST_DEFAULTS["scenario"]))
    state.model_for(scenario)  # validate the scenario before queueing
    n_chips = _number(body, "n_chips", REQUEST_DEFAULTS["n_chips"])
    if n_chips <= 0:  # type: ignore[operator]
        raise BadRequestError(f"'n_chips' must be positive, got {n_chips}")
    request = PointRequest(
        design=design,
        n_chips=n_chips,  # type: ignore[arg-type]
        capacity=_capacity(body),
        queue_weeks=_number(body, "queue_weeks"),
        d0_scale=_number(body, "d0_scale"),
        wafer_rate_scale=_number(body, "wafer_rate_scale"),
        metrics=_metrics(body),
    )
    key = ("evaluate", scenario, point_signature(request))
    payload = {
        "request": request,
        "scenario": scenario,
        "design_name": design.name,
    }
    return key, payload


def parse_mc(
    state: ServeState, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Parse one /mc body into its batcher (key, payload).

    The group key pins everything that shapes the random draws —
    scenario, sample count, seed, and every spec knob — so coalesced
    studies differ only along the design axis, which is exactly what
    ``compare_designs`` fuses with common random numbers.
    """
    body = _require_mapping(body)
    if "design" not in body:
        raise BadRequestError("missing required field 'design'")
    design = state.resolve_design(body["design"])
    scenario = str(body.get("scenario", REQUEST_DEFAULTS["scenario"]))
    state.model_for(scenario)
    samples = _integer(body, "samples", REQUEST_DEFAULTS["samples"])
    if samples <= 0:
        raise BadRequestError(f"'samples' must be positive, got {samples}")
    seed = _integer(body, "seed", REQUEST_DEFAULTS["seed"])
    spec_knobs = _spec_knobs(body)
    with_cost = bool(body.get("with_cost", REQUEST_DEFAULTS["with_cost"]))
    key = (
        "mc",
        scenario,
        samples,
        seed,
        with_cost,
        canonical_json(spec_knobs),
    )
    payload = {
        "design": design,
        "scenario": scenario,
        "samples": samples,
        "seed": seed,
        "with_cost": with_cost,
        "spec_knobs": spec_knobs,
        "design_name": design.name,
    }
    return key, payload


def parse_splits(
    state: ServeState, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Parse one /splits body into its batcher (key, payload).

    Split sweeps don't share a fusable axis, so coalescing here is
    single-flight deduplication: the group key is the canonical body,
    and every member of a group receives the one shared evaluation.
    """
    body = _require_mapping(body)
    pairs_raw = body.get("pairs")
    if not isinstance(pairs_raw, (list, tuple)) or not pairs_raw:
        raise BadRequestError(
            "field 'pairs' must be a non-empty list of [primary, secondary] "
            "node pairs"
        )
    pairs: List[Tuple[str, str]] = []
    for item in pairs_raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise BadRequestError(
                f"each pair must be a [primary, secondary] list, got {item!r}"
            )
        pairs.append((str(item[0]), str(item[1])))
    label, factory = state.split_factory(
        body.get("design", REQUEST_DEFAULTS["design"])
    )
    scenario = str(body.get("scenario", REQUEST_DEFAULTS["scenario"]))
    state.model_for(scenario)
    n_chips = _number(body, "n_chips", REQUEST_DEFAULTS["n_chips"])
    refine = bool(body.get("refine", REQUEST_DEFAULTS["refine"]))
    with_cas = bool(body.get("with_cas", REQUEST_DEFAULTS["with_cas"]))
    normalized = {
        "pairs": [list(pair) for pair in pairs],
        "design": label,
        "scenario": scenario,
        "n_chips": n_chips,
        "refine": refine,
        "with_cas": with_cas,
    }
    key = ("splits", canonical_json(normalized))
    payload = {
        "pairs": pairs,
        "factory": factory,
        "scenario": scenario,
        "n_chips": n_chips,
        "refine": refine,
        "with_cas": with_cas,
        "design_label": label,
    }
    return key, payload


def parse_scenarios(
    state: ServeState, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Parse one /scenarios body into its batcher (key, payload).

    Like /mc, the group key pins everything shaping the shared draw —
    market scenario, sample count, seed, spec knobs, sampling mode —
    plus the stress-scenario selector, so coalesced requests differ
    only along the design axis and fuse into one
    :func:`~repro.montecarlo.scenario_study.run_scenario_study` cube.
    The per-request ``seed`` lives in the key: requests with different
    seeds never share a batch.
    """
    body = _require_mapping(body)
    if "design" not in body:
        raise BadRequestError("missing required field 'design'")
    design = state.resolve_design(body["design"])
    scenario = str(body.get("scenario", REQUEST_DEFAULTS["scenario"]))
    state.model_for(scenario)
    selector = normalize_stress_selector(body.get("scenarios"))
    try:
        stress_set = stress_scenarios(selector)
    except ReproError as error:
        raise BadRequestError(str(error)) from None
    samples = _integer(body, "samples", REQUEST_DEFAULTS["samples"])
    if samples <= 0:
        raise BadRequestError(f"'samples' must be positive, got {samples}")
    correlated = bool(body.get("correlated", REQUEST_DEFAULTS["correlated"]))
    if correlated and samples % 2:
        raise BadRequestError(
            "correlated sampling is antithetic and needs an even "
            f"'samples', got {samples}"
        )
    seed = _integer(body, "seed", REQUEST_DEFAULTS["seed"])
    spec_knobs = _spec_knobs(body)
    with_cost = bool(body.get("with_cost", REQUEST_DEFAULTS["with_cost"]))
    key = (
        "scenarios",
        scenario,
        selector,
        samples,
        seed,
        with_cost,
        correlated,
        canonical_json(spec_knobs),
    )
    payload = {
        "design": design,
        "scenario": scenario,
        "selector": selector,
        "stress_set": stress_set,
        "samples": samples,
        "seed": seed,
        "with_cost": with_cost,
        "correlated": correlated,
        "spec_knobs": spec_knobs,
        "design_name": design.name,
    }
    return key, payload


_PARSERS = {
    "evaluate": parse_evaluate,
    "mc": parse_mc,
    "splits": parse_splits,
    "scenarios": parse_scenarios,
}


def parse_request(
    state: ServeState, endpoint: str, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Dispatch one endpoint's body to its parser."""
    return _PARSERS[endpoint](state, body)


# -- execution: (key, payloads) -> one response dict per payload ---------------


def execute_evaluate(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one fused point-evaluation batch."""
    scenario = payloads[0]["scenario"]
    model = state.model_for(scenario)
    results = fused_point_eval(
        model,
        state.cost_model,
        [payload["request"] for payload in payloads],
    )
    return [
        {
            "design": payload["design_name"],
            "scenario": payload["scenario"],
            "metrics": metrics,
        }
        for payload, metrics in zip(payloads, results)
    ]


def execute_mc(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one coalesced Monte Carlo study batch.

    Identical designs are deduplicated (single-flight: one study shared
    by every requester); distinct designs are fused into one
    ``compare_designs`` portfolio pass over shared draws. If two
    *different* interned designs collide on a display name (legal for
    inline designs), the batch falls back to per-design studies — the
    results are bit-identical either way, per the portfolio engine's
    common-random-numbers guarantee.
    """
    first = payloads[0]
    model = state.model_for(first["scenario"])
    knobs = first["spec_knobs"]
    spec = default_supply_spec(
        n_chips=knobs["n_chips"],
        variation=knobs["variation"],
        queue_weeks=knobs["queue_weeks"],
        capacity=knobs["capacity"],
    )
    cost_model = state.cost_model if first["with_cost"] else None

    unique: List[ChipDesign] = []
    row_of: Dict[int, int] = {}
    for payload in payloads:
        design = payload["design"]
        if id(design) not in row_of:
            row_of[id(design)] = len(unique)
            unique.append(design)

    names = [design.name for design in unique]
    run = partial(
        compare_designs,
        model,
        spec=spec,
        n_samples=first["samples"],
        seed=first["seed"],
        cost_model=cost_model,
    )
    if len(set(names)) == len(names):
        studies = run(unique)
        by_row = [studies[design.name] for design in unique]
    else:
        by_row = [run([design])[design.name] for design in unique]

    return [
        {
            "design": payload["design_name"],
            "scenario": payload["scenario"],
            "samples": payload["samples"],
            "seed": payload["seed"],
            "study": to_jsonable(by_row[row_of[id(payload["design"])]]),
        }
        for payload in payloads
    ]


def execute_splits(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one deduplicated split-sweep group (all payloads identical)."""
    first = payloads[0]
    model = state.model_for(first["scenario"])
    result = batch_split(
        first["factory"],
        first["pairs"],
        model,
        state.cost_model,
        first["n_chips"],
        split_grid=DEFAULT_SPLIT_GRID,
        with_cas=first["with_cas"],
    )
    if first["refine"] and first["with_cas"]:
        result = batch_split(
            first["factory"],
            first["pairs"],
            model,
            state.cost_model,
            first["n_chips"],
            split_grid=refine_split_grid(result),
            with_cas=True,
        )
    best = []
    for i, pair in enumerate(result.pairs):
        evaluation = result.best_evaluation(i)
        best.append(
            {
                "pair": list(pair),
                "split": evaluation.split,
                "ttm_weeks": evaluation.ttm_weeks,
                "cost_usd": evaluation.cost_usd,
                "cas": evaluation.cas,
            }
        )
    response = {
        "design": first["design_label"],
        "scenario": first["scenario"],
        "n_chips": first["n_chips"],
        "refined": bool(first["refine"] and first["with_cas"]),
        "best": best,
    }
    return [response for _ in payloads]


def execute_scenarios(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one coalesced scenario-cube study batch.

    Identical designs are deduplicated; distinct designs join one fused
    ``run_scenario_study`` cube over shared draws (common random
    numbers). Per the scenario engine's per-design independence, a
    design's slice of the fused cube is bit-identical to its solo
    study, so coalesced == solo byte-for-byte. Name collisions between
    *different* interned designs fall back to per-design studies.
    """
    first = payloads[0]
    model = state.model_for(first["scenario"])
    knobs = first["spec_knobs"]
    build_spec = (
        default_correlated_spec if first["correlated"] else default_supply_spec
    )
    spec = build_spec(
        n_chips=knobs["n_chips"],
        variation=knobs["variation"],
        queue_weeks=knobs["queue_weeks"],
        capacity=knobs["capacity"],
    )
    cost_model = state.cost_model if first["with_cost"] else None
    stress_set = first["stress_set"]

    unique: List[ChipDesign] = []
    row_of: Dict[int, int] = {}
    for payload in payloads:
        design = payload["design"]
        if id(design) not in row_of:
            row_of[id(design)] = len(unique)
            unique.append(design)

    names = [design.name for design in unique]
    run = partial(
        run_scenario_study,
        model,
        spec=spec,
        scenarios=stress_set,
        n_samples=first["samples"],
        seed=first["seed"],
        cost_model=cost_model,
    )
    if len(set(names)) == len(names):
        study = run(unique)
        by_row = [
            {
                scenario: study.cell(scenario, design.name)
                for scenario in study.scenarios
            }
            for design in unique
        ]
        baseline = study.baseline
    else:
        by_row = []
        baseline = stress_set.names[0]
        for design in unique:
            solo = run([design])
            baseline = solo.baseline
            by_row.append(
                {
                    scenario: solo.cell(scenario, design.name)
                    for scenario in solo.scenarios
                }
            )
    return [
        {
            "design": payload["design_name"],
            "scenario": payload["scenario"],
            "scenarios": list(stress_set.names),
            "baseline": baseline,
            "samples": payload["samples"],
            "seed": payload["seed"],
            "correlated": payload["correlated"],
            "studies": {
                scenario: to_jsonable(cell)
                for scenario, cell in by_row[
                    row_of[id(payload["design"])]
                ].items()
            },
        }
        for payload in payloads
    ]


_EXECUTORS = {
    "evaluate": execute_evaluate,
    "mc": execute_mc,
    "splits": execute_splits,
    "scenarios": execute_scenarios,
}


def execute_batch(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """The batcher's batch function: dispatch a group to its executor.

    ``key`` is a tuple whose first element names the endpoint (see the
    parsers above); the result is one JSON-compatible response dict per
    payload, in order.
    """
    endpoint = key[0]  # type: ignore[index]
    return _EXECUTORS[endpoint](state, key, payloads)


def endpoint_of(key: Hashable) -> str:
    """Metrics label for one group key (its endpoint name)."""
    return str(key[0])  # type: ignore[index]


__all__ = [
    "BATCHED_ENDPOINTS",
    "BadRequestError",
    "DESIGN_CACHE_LIMIT",
    "REQUEST_DEFAULTS",
    "SPEC_KNOBS",
    "ServeState",
    "canonical_json",
    "endpoint_of",
    "error_body",
    "execute_batch",
    "execute_evaluate",
    "execute_mc",
    "execute_scenarios",
    "execute_splits",
    "normalize_stress_selector",
    "parse_evaluate",
    "parse_mc",
    "parse_request",
    "parse_scenarios",
    "parse_splits",
]
