"""Process-node description.

A :class:`ProcessNode` bundles every per-node parameter the paper's models
consume (Table 1 / Sec. 5): transistor density, defect density, maximum
wafer production rate, foundry latency, the three engineering-effort
coefficients, and the cost-model inputs (wafer cost, mask-set cost, fixed
per-node tapeout bring-up cost).

Instances are frozen: a node is a datum, not a mutable object. Market
conditions (capacity fractions, queues) live in :mod:`repro.market` and are
applied on top of the node's maximum rate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from ..errors import InvalidParameterError
from ..units import WAFER_DIAMETER_MM, kwpm_to_wafers_per_week


@dataclass(frozen=True, order=False)
class ProcessNode:
    """All per-node model parameters.

    Attributes
    ----------
    name:
        Display name, e.g. ``"7nm"``.
    nanometers:
        Nominal feature size (used by the linear testing-effort fit).
    index:
        Position in the roadmap (0 = oldest node). Effort/cost curves are
        exponential in this index, mirroring the paper's "exponentially
        increasing tapeout complexity" observation.
    density_mtr_per_mm2:
        Transistor density in million transistors per mm^2.
    defect_density_per_cm2:
        D0 in Eq. 6, defects per cm^2.
    wafer_rate_kwpm:
        Maximum foundry wafer production rate, kilo-wafers per month
        (Table 2). Zero means the node currently has no production.
    fab_latency_weeks:
        L_fab: assembly-line latency of one wafer lot, in weeks.
    tapeout_effort:
        E_tapeout: engineer-weeks per unique/unverified transistor.
    testing_effort:
        E_testing: aggregate TAP-line weeks per transistor tested.
    packaging_effort:
        E_package: aggregate TAP-line weeks per (chip x mm^2 of die).
    wafer_cost_usd:
        Manufacturing cost of one processed wafer.
    mask_set_cost_usd:
        One-time photomask set cost for a tapeout at this node.
    tapeout_fixed_cost_usd:
        Fixed per-tapeout bring-up cost (EDA licenses, sign-off, shuttle
        overheads); calibrated from Table 3's C_tapeout intercept.
    wafer_diameter_mm:
        Wafer size the node runs on. The paper evaluates everything as
        300 mm equivalents but notes some legacy nodes still fabricate
        on 200 mm [66]; the ablation benches exercise that case.
    """

    name: str
    nanometers: float
    index: int
    density_mtr_per_mm2: float
    defect_density_per_cm2: float
    wafer_rate_kwpm: float
    fab_latency_weeks: float
    tapeout_effort: float
    testing_effort: float
    packaging_effort: float
    wafer_cost_usd: float
    mask_set_cost_usd: float
    tapeout_fixed_cost_usd: float
    wafer_diameter_mm: float = WAFER_DIAMETER_MM

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidParameterError("process node name must be non-empty")
        # Module-level name tuples, not per-call dicts: robustness copies
        # nodes hundreds of times a pass. A NaN passes both checks.
        values = self.__dict__
        for field_name in _POSITIVE:
            if values[field_name] <= 0.0:
                raise InvalidParameterError(
                    f"{field_name} must be positive, got "
                    f"{values[field_name]!r} for node {self.name!r}"
                )
        for field_name in _NON_NEGATIVE:
            if values[field_name] < 0:
                raise InvalidParameterError(
                    f"{field_name} must be >= 0, got "
                    f"{values[field_name]!r} for node {self.name!r}"
                )

    @property
    def max_wafer_rate_per_week(self) -> float:
        """Maximum production rate in wafers per calendar week."""
        return kwpm_to_wafers_per_week(self.wafer_rate_kwpm)

    @property
    def in_production(self) -> bool:
        """Whether the node currently fabricates wafers at all."""
        return self.wafer_rate_kwpm > 0.0

    @property
    def density_transistors_per_mm2(self) -> float:
        """Transistor density in absolute transistors per mm^2."""
        return self.density_mtr_per_mm2 * 1.0e6

    def with_overrides(self, **overrides: Any) -> "ProcessNode":
        """Return a copy with some parameters replaced.

        Used heavily by the sensitivity machinery to perturb D0, rates and
        latencies without mutating the shared database. Equal to
        ``dataclasses.replace(self, **overrides)`` field for field, and
        raises what it raises (``TypeError`` for a name that is not a
        field, :class:`~repro.errors.InvalidParameterError` for a bad
        value), but copies the fields directly and validates once.
        """
        unknown = overrides.keys() - _FIELDS
        if unknown:
            raise TypeError(
                f"{type(self).__name__} has no field(s) {sorted(unknown)}"
            )
        node = object.__new__(type(self))
        node.__dict__.update(self.__dict__, **overrides)
        node.__post_init__()
        return node

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: The names :meth:`ProcessNode.with_overrides` accepts.
_FIELDS = frozenset(field.name for field in fields(ProcessNode))

#: The fields :meth:`ProcessNode.__post_init__` checks, in order: each
#: of the first must be positive, each of the second non-negative.
_POSITIVE = (
    "nanometers",
    "density_mtr_per_mm2",
    "fab_latency_weeks",
    "tapeout_effort",
    "testing_effort",
    "packaging_effort",
    "wafer_cost_usd",
    "mask_set_cost_usd",
    "wafer_diameter_mm",
)
_NON_NEGATIVE = (
    "index",
    "defect_density_per_cm2",
    "wafer_rate_kwpm",
    "tapeout_fixed_cost_usd",
)
