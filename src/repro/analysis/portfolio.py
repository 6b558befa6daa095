"""Portfolio stress assessment: designs x market scenarios.

Firms rarely ship one chip. This helper evaluates a whole product
portfolio against a set of market scenarios, producing the TTM-delta
matrix a planning review wants: which products slip under which
disruptions, which are naturally hedged, and how agile each is at
nominal conditions. It formalizes the `shortage_war_room.py` example as
a tested API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

import numpy as np

from ..analysis.tables import format_table
from ..design.chip import ChipDesign
from ..engine.scenario import evaluate
from ..errors import InvalidParameterError
from ..market.conditions import MarketConditions
from ..ttm.model import TTMModel


@dataclass(frozen=True)
class PortfolioEntry:
    """One product: a design plus its production volume."""

    design: ChipDesign
    n_chips: float

    def __post_init__(self) -> None:
        if self.n_chips <= 0.0:
            raise InvalidParameterError(
                f"portfolio volume must be positive, got {self.n_chips}"
            )


@dataclass(frozen=True)
class PortfolioAssessment:
    """TTM deltas per (product, scenario) plus nominal TTM and CAS."""

    nominal_ttm: Mapping[str, float]
    cas: Mapping[str, float]
    delta_weeks: Mapping[Tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nominal_ttm", dict(self.nominal_ttm))
        object.__setattr__(self, "cas", dict(self.cas))
        object.__setattr__(self, "delta_weeks", dict(self.delta_weeks))

    @property
    def products(self) -> Tuple[str, ...]:
        """Product names in portfolio order."""
        return tuple(self.nominal_ttm)

    @property
    def scenarios(self) -> Tuple[str, ...]:
        """Scenario names in first-appearance order."""
        seen: Dict[str, None] = {}
        for _, scenario in self.delta_weeks:
            seen.setdefault(scenario, None)
        return tuple(seen)

    def delta(self, product: str, scenario: str) -> float:
        """TTM slip (weeks) of one product under one scenario."""
        return self.delta_weeks[(product, scenario)]

    def worst_scenario_for(self, product: str) -> str:
        """The scenario that slips a product the most."""
        return max(
            self.scenarios, key=lambda scenario: self.delta(product, scenario)
        )

    def most_exposed_product(self, scenario: str) -> str:
        """The product a scenario hurts the most."""
        return max(
            self.products, key=lambda product: self.delta(product, scenario)
        )

    def table(self) -> str:
        """The assessment matrix."""
        headers = (
            ["product", "nominal wk"]
            + [f"+wk {name}" for name in self.scenarios]
            + ["CAS"]
        )
        rows = []
        for product in self.products:
            rows.append(
                [product, self.nominal_ttm[product]]
                + [self.delta(product, name) for name in self.scenarios]
                + [self.cas[product]]
            )
        return format_table(headers, rows)


def assess_portfolio(
    model: TTMModel,
    portfolio: Mapping[str, PortfolioEntry],
    scenarios: Mapping[str, MarketConditions],
) -> PortfolioAssessment:
    """Evaluate every product under every scenario.

    CAS is evaluated at the model's base conditions; deltas are against
    each product's TTM under those same base conditions. All products
    share one :func:`~repro.engine.scenario.evaluate` call at the base
    conditions (TTM and CAS) and one TTM call per scenario.
    """
    if not portfolio:
        raise InvalidParameterError("portfolio must contain products")
    if not scenarios:
        raise InvalidParameterError("need at least one scenario")
    products = tuple(portfolio)
    designs = tuple(entry.design for entry in portfolio.values())
    volumes = np.asarray(
        [entry.n_chips for entry in portfolio.values()]
    ).reshape(-1, 1)
    base = evaluate(model, designs, volumes, ("ttm", "cas"))
    base_ttm = base.ttm.total_weeks[0, :, 0]
    base_cas = base.cas.normalized[0, :, 0]
    deltas: Dict[Tuple[str, str], float] = {}
    for scenario_name, conditions in scenarios.items():
        stressed = model.with_foundry(
            model.foundry.with_conditions(conditions)
        )
        stressed_ttm = evaluate(
            stressed, designs, volumes, ("ttm",)
        ).ttm.total_weeks[0, :, 0]
        for i, product in enumerate(products):
            deltas[(product, scenario_name)] = float(
                stressed_ttm[i] - base_ttm[i]
            )
    return PortfolioAssessment(
        nominal_ttm={
            product: float(base_ttm[i]) for i, product in enumerate(products)
        },
        cas={
            product: float(base_cas[i]) for i, product in enumerate(products)
        },
        delta_weeks=deltas,
    )
