"""Supply chain aware computer architecture modeling (ISCA '23 repro).

Public API for the time-to-market model, Chip Agility Score, and chip
creation cost model from Ning, Tziantzioulis & Wentzlaff, *Supply Chain
Aware Computer Architecture*, ISCA 2023.

Quickstart::

    from repro import TTMModel, CostModel, chip_agility_score
    from repro.design.library import a11

    model = TTMModel.nominal()
    design = a11("28nm")
    result = model.time_to_market(design, n_chips=10e6)
    print(result.total_weeks)
    print(chip_agility_score(model, design, 10e6).normalized)

Each name below is imported from its submodule when it is first read
(:mod:`repro._lazy`), so ``import repro`` alone, or a NumPy-free
submodule such as the CLI or the shard router, loads nothing else.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".agility": ("CASResult", "cas_curve", "chip_agility_score", "ttm_curve"),
        ".cost": ("CostModel", "CostResult"),
        ".design": ("Block", "ChipDesign", "Die", "ip_block"),
        ".errors": (
            "CalibrationError",
            "InvalidDesignError",
            "InvalidParameterError",
            "NodeUnavailableError",
            "ReproError",
            "UnknownNodeError",
        ),
        ".market": ("Foundry", "MarketConditions"),
        ".technology": ("ProcessNode", "TechnologyDatabase"),
        ".ttm": ("TTMModel", "TTMResult"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "Block",
    "CASResult",
    "CalibrationError",
    "ChipDesign",
    "CostModel",
    "CostResult",
    "Die",
    "Foundry",
    "InvalidDesignError",
    "InvalidParameterError",
    "MarketConditions",
    "NodeUnavailableError",
    "ProcessNode",
    "ReproError",
    "TTMModel",
    "TTMResult",
    "TechnologyDatabase",
    "UnknownNodeError",
    "__version__",
    "cas_curve",
    "chip_agility_score",
    "ip_block",
    "ttm_curve",
]
