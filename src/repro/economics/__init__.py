"""Economics extension: market windows, revenue loss, profit studies."""

from .market_window import (
    MarketWindow,
    mckinsey_loss_fraction,
    triangle_loss_fraction,
    triangle_loss_fractions,
)
from .profit import ProfitPoint, ProfitStudy, profit_study

__all__ = [
    "MarketWindow",
    "ProfitPoint",
    "ProfitStudy",
    "mckinsey_loss_fraction",
    "profit_study",
    "triangle_loss_fraction",
    "triangle_loss_fractions",
]
