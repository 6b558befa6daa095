"""Request parsing, shared state, and batch execution for repro.serve.

This module is the server's *pure* core: it turns JSON request bodies
into batcher payloads (:func:`parse_request`) and executes fused batches
of them (:func:`execute_batch`) — no sockets, no asyncio — so the whole
protocol is unit-testable without a running server. A body's fields and
its group key come from :func:`~repro.serve.common.read_request`, the
one reader the shard router routes with too; this module adds what only
a worker can resolve: the designs, the market scenario and the stress
set.

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

The names the shard router reads as well (the endpoints, the error
type and body, the wire encoding) are defined in
:mod:`repro.serve.common`, which imports no NumPy, and re-exported here.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..analysis.export import to_jsonable
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..design.library import a11, raven_multicore, zen2, zen2_monolithic
from ..design.serialize import design_from_dict
from ..engine.requests import PointRequest, fused_point_eval
from ..errors import ReproError
from ..market import scenarios
from ..montecarlo.scenario_study import run_scenario_study
from ..montecarlo.spec import default_correlated_spec, default_supply_spec
from ..montecarlo.stress import stress_scenarios
from ..montecarlo.study import compare_designs
from ..multiprocess.optimizer import _batched_best
from ..multiprocess.split import DEFAULT_SPLIT_GRID
from ..technology.database import TechnologyDatabase
from ..ttm.model import TTMModel
from .common import (
    BATCHED_ENDPOINTS,
    BadRequestError,
    _integer,
    _require_mapping,
    canonical_json,
    error_body,
    read_request,
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

#: Library factories addressable via ``{"library": ..., "process": ...}``;
#: /splits ports them per node.
_LIBRARY_FACTORIES: Dict[str, Callable[..., ChipDesign]] = {
    "a11": a11,
    "zen2-monolithic": zen2_monolithic,
    "raven": raven_multicore,
}


def _library_factory(library: Any) -> Optional[Callable[..., ChipDesign]]:
    """The factory a ``library`` field names; None for an unknown name
    or a value that is no string (a list is not even hashable)."""
    if not isinstance(library, str):
        return None
    return _LIBRARY_FACTORIES.get(library)


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
            factory = _library_factory(library)
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

    def split_factory(
        self, library: Any, cores: Optional[int]
    ) -> Callable[[str], ChipDesign]:
        """The node -> design factory of one /splits design, from the
        library and core count :func:`read_request` read."""
        factory = _library_factory(library)
        if factory is None:
            raise BadRequestError(
                f"split designs must name a single-process library "
                f"({sorted(_LIBRARY_FACTORIES)}), got {library!r}"
            )
        if cores is None:
            return factory
        if library != "raven":
            raise BadRequestError(
                "'cores' only applies to the 'raven' library"
            )
        return partial(factory, cores=cores)


# -- parsing: body -> (group key, payload) ------------------------------------

#: The /evaluate fields a :class:`PointRequest` holds.
_POINT_FIELDS = (
    "design",
    "n_chips",
    "capacity",
    "queue_weeks",
    "d0_scale",
    "wafer_rate_scale",
    "metrics",
)


def parse_request(
    state: ServeState, endpoint: str, body: Any
) -> Tuple[Tuple[str, bytes], Dict[str, Any]]:
    """One body's batcher ``(group key, payload)``.

    :func:`read_request` checks every field but the designs and gives
    the group key; this resolves what only a worker can: the design(s),
    the market scenario and, for /scenarios, the stress set.
    """
    key, fields = read_request(endpoint, body)
    if endpoint == "splits":
        fields["factory"] = state.split_factory(
            fields["library"], fields["cores"]
        )
    else:
        fields["design"] = state.resolve_design(fields["design"])
        fields["design_name"] = fields["design"].name
    state.model_for(fields["scenario"])  # validate before queueing
    if endpoint == "scenarios":
        try:
            fields["stress_set"] = stress_scenarios(fields["selector"])
        except ReproError as error:
            raise BadRequestError(str(error)) from None
    if endpoint == "evaluate":
        fields["request"] = PointRequest(
            **{name: fields.pop(name) for name in _POINT_FIELDS}
        )
    return key, fields



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


def _per_design(
    payloads: Sequence[Dict[str, Any]],
    run: Callable[[List[ChipDesign]], Any],
    row: Callable[[Any, ChipDesign], Any],
) -> List[Any]:
    """One row per payload from one fused study of a batch's designs.

    Identical designs are deduplicated (single-flight: one row shared by
    every requester); distinct designs share one ``run`` over common
    random numbers, and ``row(result, design)`` picks a design's row of
    it. If two *different* interned designs collide on a display name
    (legal for inline designs), each design runs alone instead; its row
    is bit-identical either way, since a design's slice of a fused
    study equals its solo study.
    """
    unique: Dict[int, ChipDesign] = {}
    for payload in payloads:
        unique.setdefault(id(payload["design"]), payload["design"])
    designs = list(unique.values())
    if len({design.name for design in designs}) == len(designs):
        fused = run(designs)
        rows = {key: row(fused, design) for key, design in unique.items()}
    else:
        rows = {
            key: row(run([design]), design) for key, design in unique.items()
        }
    return [rows[id(payload["design"])] for payload in payloads]


def execute_mc(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one coalesced Monte Carlo study batch: the distinct designs
    share one ``compare_designs`` pass (:func:`_per_design`)."""
    first = payloads[0]
    run = partial(
        compare_designs,
        state.model_for(first["scenario"]),
        spec=default_supply_spec(**first["spec_knobs"]),
        n_samples=first["samples"],
        seed=first["seed"],
        cost_model=state.cost_model if first["with_cost"] else None,
    )
    studies = _per_design(
        payloads, run, lambda result, design: to_jsonable(result[design.name])
    )
    return [
        {
            "design": payload["design_name"],
            "scenario": payload["scenario"],
            "samples": payload["samples"],
            "seed": payload["seed"],
            "study": study,
        }
        for payload, study in zip(payloads, studies)
    ]


def execute_splits(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one deduplicated split-sweep group (all payloads identical)
    through the Fig. 14 study's own pipeline, so ``refine`` means the
    exact breakpoint solve here as it does in ``run_split_study``."""
    first = payloads[0]
    refined = first["refine"] and first["with_cas"]
    best = _batched_best(
        first["factory"],
        first["pairs"],
        state.model_for(first["scenario"]),
        state.cost_model,
        first["n_chips"],
        DEFAULT_SPLIT_GRID,
        refined,
        with_cas=first["with_cas"],
    )
    response = {
        "design": first["design_label"],
        "scenario": first["scenario"],
        "n_chips": first["n_chips"],
        "refined": refined,
        "best": [
            {
                "pair": list(pair),
                "split": evaluation.split,
                "ttm_weeks": evaluation.ttm_weeks,
                "cost_usd": evaluation.cost_usd,
                "cas": evaluation.cas,
            }
            for pair, evaluation in zip(first["pairs"], best)
        ],
    }
    return [response for _ in payloads]


def execute_scenarios(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one coalesced scenario-cube study batch: the distinct designs
    join one ``run_scenario_study`` cube (:func:`_per_design`); per the
    scenario engine's per-design independence, a design's slice of the
    cube is bit-identical to its solo study, so coalesced == solo byte
    for byte."""
    first = payloads[0]
    build_spec = (
        default_correlated_spec if first["correlated"] else default_supply_spec
    )
    stress_set = first["stress_set"]
    run = partial(
        run_scenario_study,
        state.model_for(first["scenario"]),
        spec=build_spec(**first["spec_knobs"]),
        scenarios=stress_set,
        n_samples=first["samples"],
        seed=first["seed"],
        cost_model=state.cost_model if first["with_cost"] else None,
    )

    def row(study: Any, design: ChipDesign) -> Tuple[str, Dict[str, Any]]:
        cells = {
            scenario: to_jsonable(study.cell(scenario, design.name))
            for scenario in study.scenarios
        }
        return study.baseline, cells

    return [
        {
            "design": payload["design_name"],
            "scenario": payload["scenario"],
            "scenarios": list(stress_set.names),
            "baseline": baseline,
            "samples": payload["samples"],
            "seed": payload["seed"],
            "correlated": payload["correlated"],
            "studies": studies,
        }
        for payload, (baseline, studies) in zip(
            payloads, _per_design(payloads, run, row)
        )
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

    ``key`` is ``(endpoint, key bytes)`` (see
    :func:`~repro.serve.common.read_request`); the result is one JSON-compatible response dict per
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
    "ServeState",
    "canonical_json",
    "endpoint_of",
    "error_body",
    "execute_batch",
    "execute_evaluate",
    "execute_mc",
    "execute_scenarios",
    "execute_splits",
    "parse_request",
]
