"""Sweep, Pareto, and table helpers shared by experiments and the CLI.

Each name is imported from its submodule when it is first read
(:mod:`repro._lazy`), so ``format_table`` or ``to_json`` load no NumPy
and no engine.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".export": ("to_json", "to_jsonable"),
        ".pareto": ("dominates", "knee_point", "pareto_front", "pareto_mask"),
        ".portfolio": (
            "PortfolioAssessment",
            "PortfolioEntry",
            "assess_portfolio",
        ),
        ".search": (
            "Configuration",
            "SearchResult",
            "SearchSpace",
            "grid_search",
        ),
        ".sweep": (
            "argmax",
            "argmin",
            "capacity_curves",
            "capacity_fractions",
            "chip_quantities",
            "normalized",
            "sweep",
            "sweep_pairs",
        ),
        ".tables": ("format_cell", "format_table"),
    },
)

__all__ = [
    "Configuration",
    "PortfolioAssessment",
    "PortfolioEntry",
    "SearchResult",
    "SearchSpace",
    "argmax",
    "argmin",
    "assess_portfolio",
    "capacity_curves",
    "capacity_fractions",
    "chip_quantities",
    "dominates",
    "format_cell",
    "format_table",
    "grid_search",
    "knee_point",
    "normalized",
    "pareto_front",
    "pareto_mask",
    "sweep",
    "sweep_pairs",
    "to_json",
    "to_jsonable",
]
