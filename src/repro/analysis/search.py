"""Constrained design-space search.

The case studies each sweep one axis at a time; real design work picks a
*point* in the joint space (node x core count x cache sizes x ...) under
constraints (cost caps, TTM deadlines, minimum performance). This module
provides a small, explicit grid-search engine over named parameter
domains:

    space = SearchSpace({"process": [...], "cores": [...]})
    best = grid_search(
        space,
        objective=lambda cfg: evaluate(cfg).ipc_per_week,
        constraints=[lambda cfg: evaluate(cfg).cost <= CAP],
    )

No cleverness — the paper-scale spaces are a few thousand points and an
exhaustive sweep is both exact and auditable. The engine reports how many
points were feasible so silent over-constraining is visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import InvalidParameterError

#: One point in the space: parameter name -> chosen value.
Configuration = Dict[str, object]


@dataclass(frozen=True)
class SearchSpace:
    """Named, finite parameter domains."""

    domains: Mapping[str, Tuple[object, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        frozen = {
            name: tuple(values) for name, values in self.domains.items()
        }
        object.__setattr__(self, "domains", frozen)
        if not frozen:
            raise InvalidParameterError("search space must be non-empty")
        for name, values in frozen.items():
            if not values:
                raise InvalidParameterError(
                    f"domain {name!r} must contain at least one value"
                )

    @property
    def size(self) -> int:
        """Number of points in the full grid."""
        total = 1
        for values in self.domains.values():
            total *= len(values)
        return total

    def points(self) -> List[Configuration]:
        """Every configuration, in deterministic order."""
        names = list(self.domains)
        return [
            dict(zip(names, combo))
            for combo in product(*(self.domains[name] for name in names))
        ]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a grid search."""

    best: Configuration
    best_score: float
    evaluated: int
    feasible: int

    @property
    def feasible_fraction(self) -> float:
        """Share of the grid that satisfied all constraints."""
        return self.feasible / self.evaluated if self.evaluated else 0.0


def _score(
    objective: Callable[[Configuration], float],
    constraints: Tuple[Callable[[Configuration], bool], ...],
    configuration: Configuration,
) -> Optional[float]:
    """A point's objective, or ``None`` if a constraint rejects it.

    Module-level, so the process executor can pickle it together with
    picklable (module-level) objectives and constraints.
    """
    if not all(constraint(configuration) for constraint in constraints):
        return None
    return objective(configuration)


def grid_search(
    space: SearchSpace,
    objective: Callable[[Configuration], float],
    constraints: Sequence[Callable[[Configuration], bool]] = (),
    maximize: bool = True,
    executor: str = "serial",
    max_workers: Optional[int] = None,
) -> SearchResult:
    """Exhaustively search the space for the best feasible point.

    Raises if no point satisfies every constraint, naming the feasible
    count so the caller can tell an over-tight cap from an empty space.

    ``executor``/``max_workers`` fan the per-point evaluations out through
    :func:`repro.engine.parallel.parallel_map`; the reduction stays serial
    and keeps grid order, so ties resolve to the same (first) point under
    every executor.
    """
    from ..engine.parallel import parallel_map

    points = space.points()
    scores = parallel_map(
        partial(_score, objective, tuple(constraints)),
        points,
        executor=executor,
        max_workers=max_workers,
    )

    best: Configuration = {}
    best_score = float("-inf") if maximize else float("inf")
    evaluated = len(points)
    feasible = 0
    for configuration, score in zip(points, scores):
        if score is None:
            continue
        feasible += 1
        better = score > best_score if maximize else score < best_score
        if better:
            best, best_score = configuration, score
    if feasible == 0:
        raise InvalidParameterError(
            f"no feasible point: {evaluated} evaluated, 0 satisfied the "
            f"{len(constraints)} constraint(s)"
        )
    return SearchResult(
        best=best,
        best_score=best_score,
        evaluated=evaluated,
        feasible=feasible,
    )
