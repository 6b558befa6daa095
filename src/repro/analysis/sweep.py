"""Parameter-sweep helpers shared by the experiments."""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Sequence,
    Tuple,
    TypeVar,
)

from ..errors import InvalidParameterError

if TYPE_CHECKING:
    import numpy as np

    from ..design.chip import ChipDesign
    from ..ttm.model import TTMModel

T = TypeVar("T")


def capacity_fractions(
    start: float = 0.05, stop: float = 1.0, count: int = 20
) -> Tuple[float, ...]:
    """Evenly spaced capacity fractions for CAS/TTM sweeps (Figs. 3, 9-13).

    Fractions must stay strictly positive — zero capacity makes TTM
    unbounded — so the default sweep starts at 5% of max rate.
    """
    if count < 2:
        raise InvalidParameterError(f"count must be >= 2, got {count}")
    if not 0.0 < start < stop <= 1.0:
        raise InvalidParameterError(
            f"need 0 < start < stop <= 1, got start={start}, stop={stop}"
        )
    step = (stop - start) / (count - 1)
    return tuple(start + i * step for i in range(count))


def capacity_curves(
    model: "TTMModel",
    designs: "Sequence[ChipDesign]",
    n_chips: float,
    fractions: Sequence[float],
) -> "Tuple[np.ndarray, np.ndarray]":
    """TTM and normalized-CAS matrices over a shared capacity sweep.

    Both matrices have shape ``(n_designs, n_fractions)`` and come from
    one :func:`~repro.engine.scenario.evaluate` call (TTM rides on the
    CAS pass, with no per-design Python loop); row ``i`` matches the
    scalar ``ttm_curve`` / ``cas_curve`` to round-off.
    """
    from ..engine.scenario import evaluate

    evaluation = evaluate(
        model, tuple(designs), n_chips, ("ttm", "cas"), capacity=fractions
    )
    return evaluation.ttm.total_weeks[0], evaluation.cas.normalized[0]


def chip_quantities() -> Tuple[float, ...]:
    """The paper's final-chip quantities (Figs. 6 and 10): 1K .. 100M."""
    return (1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


def normalized(values: Sequence[float]) -> List[float]:
    """Values scaled so the maximum is 1.0 (Fig. 5's axes)."""
    if not values:
        raise InvalidParameterError("cannot normalize an empty sequence")
    peak = max(values)
    if peak <= 0.0:
        raise InvalidParameterError(
            f"normalization needs a positive maximum, got {peak}"
        )
    return [value / peak for value in values]


def argmax(items: Iterable[T], key: Callable[[T], float]) -> T:
    """The item maximizing ``key`` (explicit name for experiment code)."""
    best = None
    best_value = None
    for item in items:
        value = key(item)
        if best_value is None or value > best_value:
            best, best_value = item, value
    if best_value is None:
        raise InvalidParameterError("argmax over an empty iterable")
    return best


def argmin(items: Iterable[T], key: Callable[[T], float]) -> T:
    """The item minimizing ``key``."""
    return argmax(items, key=lambda item: -key(item))


def sweep_pairs(
    values: Sequence[T], evaluate: Callable[[T], float]
) -> Tuple[Tuple[T, float], ...]:
    """Evaluate a function over a grid as ordered ``(value, result)`` pairs.

    Unlike the dict-shaped :func:`sweep`, duplicated grid values each keep
    their own result, and the pairs preserve evaluation order exactly.
    """
    return tuple((value, evaluate(value)) for value in values)


def sweep(
    values: Sequence[T], evaluate: Callable[[T], float]
) -> Dict[T, float]:
    """Dict-compat wrapper over :func:`sweep_pairs`.

    Kept for callers that index results by grid value. Duplicated values
    collapse (the last evaluation wins) — use :func:`sweep_pairs` when the
    grid may repeat values.
    """
    return dict(sweep_pairs(values, evaluate))
