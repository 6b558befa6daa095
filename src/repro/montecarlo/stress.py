"""Named stress scenarios for the fused scenario cube.

A small library of supply-chain shocks, each a
:class:`~repro.engine.scenario.Scenario` transform over the sampled
base world, organized as families with graded severities (e.g.
``fab-outage:severe``). The families follow the disruptions the paper
and its successors discuss — regional fab outages (leading-edge
capacity concentrated in one region), export-control shocks on advanced
nodes, demand whiplash, pandemic-style logistics delays, defect
excursions — plus a ``baseline`` identity scenario every sweep should
include as the paired-control column.

:func:`stress_scenarios` resolves selector strings (``"all"``, a family
name, or an exact ``family:severity`` name) into a compiled
:class:`~repro.engine.scenario.ScenarioSet` for
:func:`~repro.engine.scenario.evaluate` /
:func:`~repro.montecarlo.scenario_study.run_scenario_study`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..engine.scenario import Scenario, ScenarioSet, compile_scenarios
from ..errors import InvalidParameterError

_Builder = Callable[[str, float], Scenario]

#: Leading-edge nodes concentrated in the exposed fab region.
LEADING_EDGE_NODES: Tuple[str, ...] = ("14nm", "7nm", "5nm")

#: Advanced nodes an export-control shock restricts.
EXPORT_CONTROLLED_NODES: Tuple[str, ...] = ("7nm", "5nm")


def _fab_outage(severity: str, remaining: float) -> Scenario:
    return Scenario(
        name=f"fab-outage:{severity}",
        description=(
            "Regional outage of leading-edge fabs: "
            f"{remaining:.0%} of {', '.join(LEADING_EDGE_NODES)} "
            "capacity remains; queues stretch as orders re-route"
        ),
        capacity_scale={node: remaining for node in LEADING_EDGE_NODES},
        queue_scale=1.0 + 0.5 * (1.0 - remaining),
    )


def _export_control(severity: str, remaining: float) -> Scenario:
    return Scenario(
        name=f"export-control:{severity}",
        description=(
            "Export-control shock on advanced nodes "
            f"({', '.join(EXPORT_CONTROLLED_NODES)} at "
            f"{remaining:.0%} capacity); constrained tooling also "
            "lifts defect density"
        ),
        capacity_scale={
            node: remaining for node in EXPORT_CONTROLLED_NODES
        },
        d0_scale=1.0 + 0.25 * (1.0 - remaining),
    )


def _demand_whiplash(severity: str, swing: float) -> Scenario:
    return Scenario(
        name=f"demand-whiplash:{severity}",
        description=(
            f"Demand overshoots by {swing - 1.0:+.0%} while every "
            "other buyer does the same: queues lengthen in step"
        ),
        demand_scale=swing,
        queue_scale=1.0 + 0.6 * (swing - 1.0),
    )


def _demand_collapse(severity: str, level: float) -> Scenario:
    return Scenario(
        name=f"demand-collapse:{severity}",
        description=(
            f"Demand falls to {level:.0%} of plan; idle fabs clear "
            "queues and effective capacity loosens"
        ),
        demand_scale=level,
        queue_scale=max(1.0 - 0.5 * (1.0 - level), 0.05),
        capacity_scale=min(1.0 / max(level, 0.1), 1.25),
    )


def _logistics_delay(severity: str, added_weeks: float) -> Scenario:
    return Scenario(
        name=f"logistics:{severity}",
        description=(
            "Pandemic-style logistics delay: every order carries "
            f"+{added_weeks:g} weeks of transit/queue time and wafer "
            "movement slows"
        ),
        queue_add_weeks=added_weeks,
        wafer_rate_scale=1.0 - min(0.02 * added_weeks, 0.3),
    )


def _defect_excursion(severity: str, d0_mult: float) -> Scenario:
    return Scenario(
        name=f"defect-excursion:{severity}",
        description=(
            f"Process excursion lifts defect density {d0_mult:g}x "
            "across the portfolio"
        ),
        d0_scale=d0_mult,
    )


def _capacity_squeeze(severity: str, fraction: float) -> Scenario:
    return Scenario(
        name=f"capacity-squeeze:{severity}",
        description=(
            "Broad allocation squeeze: every node quotes "
            f"{fraction:.0%} of its capacity"
        ),
        capacity_scale=fraction,
    )


#: severity label -> graded intensity, shared by every family.
_SEVERITIES: Tuple[Tuple[str, float], ...] = (
    ("mild", 0.25),
    ("moderate", 0.5),
    ("severe", 0.75),
    ("extreme", 1.0),
)

#: family -> builder(label, intensity in (0, 1]) -> Scenario. Each maps
#: the shared intensity scale onto that family's physical knobs.
_FAMILY_BUILDERS: Dict[str, "_Builder"] = {
    "fab-outage": lambda label, x: _fab_outage(
        label, remaining=1.0 - 0.75 * x
    ),
    "export-control": lambda label, x: _export_control(
        label, remaining=1.0 - 0.8 * x
    ),
    "demand-whiplash": lambda label, x: _demand_whiplash(
        label, swing=1.0 + 0.6 * x
    ),
    "demand-collapse": lambda label, x: _demand_collapse(
        label, level=1.0 - 0.55 * x
    ),
    "logistics": lambda label, x: _logistics_delay(
        label, added_weeks=10.0 * x
    ),
    "defect-excursion": lambda label, x: _defect_excursion(
        label, d0_mult=1.0 + 0.6 * x
    ),
    "capacity-squeeze": lambda label, x: _capacity_squeeze(
        label, fraction=1.0 - 0.65 * x
    ),
}


def _build_library() -> Dict[str, Scenario]:
    scenarios: Dict[str, Scenario] = {}

    def add(scenario: Scenario) -> None:
        scenarios[scenario.name] = scenario

    add(Scenario(name="baseline", description="No shock (paired control)"))
    for label, x in _SEVERITIES:
        for build in _FAMILY_BUILDERS.values():
            add(build(label, x))
    return scenarios


def _touches_demand_or_d0(family: str) -> bool:
    """Whether a family's transform moves demand or defect density."""
    probe = _FAMILY_BUILDERS[family]("probe", 1.0)
    return probe.demand_scale != 1.0 or probe.d0_scale != 1.0


def _checked_intensity(raw: float) -> float:
    x = float(raw)
    if not 0.0 < x <= 1.0:
        raise InvalidParameterError(
            f"stress intensity must lie in (0, 1], got {raw!r}"
        )
    return x


def graded_stress_scenarios(
    intensities: Sequence[float],
    demand_intensities: Optional[Sequence[float]] = None,
) -> ScenarioSet:
    """A denser severity grid: baseline + every family at each intensity.

    ``intensities`` are points on the shared (0, 1] severity scale the
    library's mild/moderate/severe/extreme labels sample at 0.25 steps;
    each is rendered through the same per-family knob mappings, named
    ``family:x<intensity>``.

    ``demand_intensities``, when given, is a separate (typically
    coarser) ladder for the families that move demand or defect
    density. Grading those axes on the library's canonical quarter
    steps while sweeping the supply-side families (capacity, queue,
    wafer rate) finely matches how stress suites are built in practice
    — demand/yield shocks come in a few calibrated sizes, supply
    degradation is scanned — and it is what makes the fused cube's
    cross-scenario (demand x D0) dedup bite: every supply-side scenario
    shares one wafer/testing/cost group.
    """
    scenarios = [
        Scenario(name="baseline", description="No shock (paired control)")
    ]
    ladders = {
        family: (
            demand_intensities
            if demand_intensities is not None
            and _touches_demand_or_d0(family)
            else intensities
        )
        for family in _FAMILY_BUILDERS
    }
    for family, build in _FAMILY_BUILDERS.items():
        for raw in ladders[family]:
            x = _checked_intensity(raw)
            scenarios.append(build(f"x{x:g}", x))
    return compile_scenarios(scenarios)


#: Every named stress scenario, keyed by ``family:severity``.
STRESS_LIBRARY: Dict[str, Scenario] = _build_library()

#: Family names (the part before ``:``).
STRESS_FAMILIES: Tuple[str, ...] = tuple(
    dict.fromkeys(name.split(":")[0] for name in STRESS_LIBRARY)
)


def stress_scenarios(
    selector: Union[str, Sequence[str]] = "all",
) -> ScenarioSet:
    """Resolve a selector into a compiled scenario set.

    ``"all"`` selects the whole library; a family name (e.g.
    ``"fab-outage"``) selects its severity ladder; an exact name (e.g.
    ``"logistics:severe"``) selects one scenario. A sequence mixes
    selectors; duplicates are dropped, order of first mention is kept.
    """
    selectors = (
        [selector] if isinstance(selector, str) else list(selector)
    )
    if not selectors:
        raise InvalidParameterError(
            "scenario selector must name at least one scenario"
        )
    chosen: Dict[str, Scenario] = {}
    for entry in selectors:
        if entry == "all":
            chosen.update(STRESS_LIBRARY)
        elif entry in STRESS_LIBRARY:
            chosen.setdefault(entry, STRESS_LIBRARY[entry])
        elif entry in STRESS_FAMILIES:
            for name, scenario in STRESS_LIBRARY.items():
                if name == entry or name.startswith(entry + ":"):
                    chosen.setdefault(name, scenario)
        else:
            known = ", ".join(("all",) + STRESS_FAMILIES)
            raise InvalidParameterError(
                f"unknown stress scenario {entry!r}; selectors are "
                f"{known} or an exact name like "
                f"{next(iter(STRESS_LIBRARY))!r}"
            )
    return compile_scenarios(list(chosen.values()))


__all__ = [
    "EXPORT_CONTROLLED_NODES",
    "LEADING_EDGE_NODES",
    "STRESS_FAMILIES",
    "STRESS_LIBRARY",
    "graded_stress_scenarios",
    "stress_scenarios",
]
