"""The default technology database: twelve nodes from 250 nm to 5 nm.

Every parameter is either taken verbatim from the paper (Table 2 wafer
rates, latency schedule, alpha = 3), from the public sources the paper
cites (density, wafer and mask costs), or calibrated against intermediate
results the paper publishes (tapeout effort from Tables 3/4, the 250 nm
example in Sec. 6.2). `DESIGN.md` documents each anchor.

The database is an immutable mapping; sensitivity analysis and market
scenarios create perturbed *copies* via :meth:`TechnologyDatabase.override`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..errors import InvalidParameterError, NodeUnavailableError, UnknownNodeError
from .density import DENSITY_MTR_PER_MM2
from .effort import ExponentialFit, LinearFit, LogLinearInterpolator, fit_linear
from .node import ProcessNode

#: Roadmap order, oldest first. The index into this tuple is the node index
#: used by the exponential effort/cost curves.
ROADMAP: Tuple[str, ...] = (
    "250nm",
    "180nm",
    "130nm",
    "90nm",
    "65nm",
    "40nm",
    "28nm",
    "20nm",
    "14nm",
    "10nm",
    "7nm",
    "5nm",
)

#: Feature size in nanometers per node.
NANOMETERS: Dict[str, float] = {
    "250nm": 250.0,
    "180nm": 180.0,
    "130nm": 130.0,
    "90nm": 90.0,
    "65nm": 65.0,
    "40nm": 40.0,
    "28nm": 28.0,
    "20nm": 20.0,
    "14nm": 14.0,
    "10nm": 10.0,
    "7nm": 7.0,
    "5nm": 5.0,
}

#: Estimated wafer production rates, kilo-wafers/month (paper Table 2).
#: 20 nm and 10 nm are zero: TSMC reported 0% revenue from them in 2022 Q2.
WAFER_RATE_KWPM: Dict[str, float] = {
    "250nm": 41.0,
    "180nm": 241.0,
    "130nm": 120.0,
    "90nm": 79.0,
    "65nm": 189.0,
    "40nm": 284.0,
    "28nm": 350.0,
    "20nm": 0.0,
    "14nm": 281.0,
    "10nm": 0.0,
    "7nm": 252.0,
    "5nm": 97.0,
}

#: Defect density D0 (defects/cm^2): low and flat for mature nodes,
#: increasing starting from 20 nm (paper Sec. 5, citing [27, 111]).
DEFECT_DENSITY_PER_CM2: Dict[str, float] = {
    "250nm": 0.05,
    "180nm": 0.05,
    "130nm": 0.05,
    "90nm": 0.05,
    "65nm": 0.05,
    "40nm": 0.05,
    "28nm": 0.05,
    "20nm": 0.07,
    "14nm": 0.08,
    "10nm": 0.09,
    "7nm": 0.09,
    "5nm": 0.10,
}

#: Foundry latency L_fab in weeks: 12 for legacy nodes, rising from 20 nm
#: up to 20 weeks at 5 nm (paper Sec. 5, citing [16, 128]).
FAB_LATENCY_WEEKS: Dict[str, float] = {
    "250nm": 12.0,
    "180nm": 12.0,
    "130nm": 12.0,
    "90nm": 12.0,
    "65nm": 12.0,
    "40nm": 12.0,
    "28nm": 12.0,
    "20nm": 14.0,
    "14nm": 15.0,
    "10nm": 17.0,
    "7nm": 18.0,
    "5nm": 20.0,
}

#: Baseline testing/assembly/packaging latency L_TAP, all nodes (Sec. 5).
TAP_LATENCY_WEEKS = 6.0

#: E_tapeout anchors in engineer-weeks per unique transistor, keyed by node
#: index. The 14 nm and 7 nm anchors are recovered exactly from Table 4
#: (475 M NUT -> 3.6 wk @14nm, 10.4 wk @7nm with a 100-engineer team; the
#: 523 M NUT I/O die -> 4.0 wk @14nm is consistent). The 5 nm anchor
#: continues that exponential trend; it also reproduces Table 3's tapeout
#: weeks with a 50-engineer block team (45.62 M NUT * 3.9e-6 / 50 = 3.56
#: wk vs the paper's 3.5). Legacy anchors extend the trend with mild
#: flattening (verification cost surveys show a slower slope pre-28 nm).
TAPEOUT_EFFORT_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (0.0, 1.5e-8),   # 250nm
    (1.0, 2.0e-8),   # 180nm
    (4.0, 5.0e-8),   # 65nm
    (6.0, 1.2e-7),   # 28nm
    (8.0, 7.58e-7),  # 14nm  (3.6 wk * 100 eng / 475 M NUT)
    (10.0, 2.19e-6),  # 7nm   (10.4 wk * 100 eng / 475 M NUT)
    (11.0, 3.9e-6),   # 5nm   (trend + Table 3 with a 50-engineer team)
)

#: E_testing linear fit over feature size in nm: aggregate TAP-line weeks
#: per transistor tested. Legacy test lines have lower aggregate
#: throughput, so per-transistor effort falls toward advanced nodes
#: (ITRS minimum test data volume [1] + validation costs [63]). The slope
#: is kept shallow so that production rate, not test throughput, drives
#: the legacy-node ordering (Fig. 10: 180 nm beats 130/90 nm because of
#: its higher wafer production rate).
TESTING_EFFORT_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (5.0, 1.425e-17),
    (130.0, 8.3e-17),
    (250.0, 1.49e-16),
)

#: E_package exponential over node index: aggregate packaging-line weeks
#: per chip per mm^2 of die. Grows mildly toward advanced nodes (finer
#: pitch, advanced packaging flows), per the paper's "physical costs"
#: fit. The scale is kept small enough that the fabrication phase — not
#: assembly — decides mixed-process vs single-process comparisons, which
#: is the regime the paper's Sec. 6.5 results live in.
PACKAGING_EFFORT_SCALE = 1.2e-10
PACKAGING_EFFORT_RATE = 0.03

#: Processed-wafer cost in USD (CSET AI-chips report [54] style figures).
WAFER_COST_USD: Dict[str, float] = {
    "250nm": 1000.0,
    "180nm": 1300.0,
    "130nm": 1500.0,
    "90nm": 1650.0,
    "65nm": 1850.0,
    "40nm": 2300.0,
    "28nm": 2600.0,
    "20nm": 3200.0,
    "14nm": 4000.0,
    "10nm": 5900.0,
    "7nm": 9300.0,
    "5nm": 17000.0,
}

#: Photomask-set cost in USD (LithoVision 2020 [50] style figures).
MASK_SET_COST_USD: Dict[str, float] = {
    "250nm": 7.0e4,
    "180nm": 1.0e5,
    "130nm": 2.5e5,
    "90nm": 4.5e5,
    "65nm": 7.0e5,
    "40nm": 1.0e6,
    "28nm": 1.5e6,
    "20nm": 2.5e6,
    "14nm": 3.9e6,
    "10nm": 6.0e6,
    "7nm": 9.5e6,
    "5nm": 1.6e7,
}

#: Fixed per-tapeout bring-up cost (EDA licenses, sign-off, shuttle
#: overhead): exponential in node index, calibrated so the 5 nm intercept
#: reproduces Table 3's C_tapeout column (~$3.0 M fixed at 5 nm).
TAPEOUT_FIXED_COST_SCALE = 3.0e4
TAPEOUT_FIXED_COST_RATE = 0.4193


def tapeout_effort_curve() -> LogLinearInterpolator:
    """Exponential-spline E_tapeout curve over the node index."""
    return LogLinearInterpolator.from_points(TAPEOUT_EFFORT_ANCHORS)


def testing_effort_fit() -> LinearFit:
    """Linear E_testing fit over feature size in nanometers."""
    return fit_linear(TESTING_EFFORT_ANCHORS)


def packaging_effort_fit() -> ExponentialFit:
    """Exponential E_package fit over the node index."""
    return ExponentialFit(scale=PACKAGING_EFFORT_SCALE, rate=PACKAGING_EFFORT_RATE)


def tapeout_fixed_cost_fit() -> ExponentialFit:
    """Exponential fixed tapeout cost over the node index."""
    return ExponentialFit(
        scale=TAPEOUT_FIXED_COST_SCALE, rate=TAPEOUT_FIXED_COST_RATE
    )


def build_default_nodes() -> List[ProcessNode]:
    """Construct the twelve default :class:`ProcessNode` instances."""
    tapeout = tapeout_effort_curve()
    testing = testing_effort_fit()
    packaging = packaging_effort_fit()
    fixed_cost = tapeout_fixed_cost_fit()
    nodes = []
    for index, name in enumerate(ROADMAP):
        nodes.append(
            ProcessNode(
                name=name,
                nanometers=NANOMETERS[name],
                index=index,
                density_mtr_per_mm2=DENSITY_MTR_PER_MM2[name],
                defect_density_per_cm2=DEFECT_DENSITY_PER_CM2[name],
                wafer_rate_kwpm=WAFER_RATE_KWPM[name],
                fab_latency_weeks=FAB_LATENCY_WEEKS[name],
                tapeout_effort=tapeout.predict(float(index)),
                testing_effort=testing.predict(NANOMETERS[name]),
                packaging_effort=packaging.predict(float(index)),
                wafer_cost_usd=WAFER_COST_USD[name],
                mask_set_cost_usd=MASK_SET_COST_USD[name],
                tapeout_fixed_cost_usd=fixed_cost.predict(float(index)),
            )
        )
    return nodes


class TechnologyDatabase(Mapping[str, ProcessNode]):
    """Immutable name -> :class:`ProcessNode` mapping with helpers.

    Supports the mapping protocol (``db["7nm"]``, iteration in roadmap
    order, ``len``) plus convenience accessors used by the models. Derived
    databases for sensitivity/scenario studies are created with
    :meth:`override`, which never mutates the original.
    """

    def __init__(self, nodes: Iterable[ProcessNode]):
        ordered = sorted(nodes, key=lambda node: node.index)
        self._nodes: Dict[str, ProcessNode] = {}
        for node in ordered:
            if node.name in self._nodes:
                raise InvalidParameterError(
                    f"duplicate process node name {node.name!r}"
                )
            self._nodes[node.name] = node

    @classmethod
    def default(cls) -> "TechnologyDatabase":
        """The paper's twelve-node roadmap with calibrated parameters.

        One database per process, built at import and returned by every
        call: the database is immutable, and the engine's compile cache
        is keyed by database identity, so every ``TTMModel.nominal()``,
        ``CostModel.nominal()`` and ``Foundry.nominal()`` shares its
        compiled tables. :meth:`override` still returns a new copy; a
        distinct default-valued database is
        ``TechnologyDatabase(build_default_nodes())``.
        """
        return _DEFAULT

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, name: str) -> ProcessNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNodeError(name, tuple(self._nodes)) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- Convenience accessors ----------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        """Node names in roadmap order (oldest first)."""
        return tuple(self._nodes)

    @property
    def nodes(self) -> Tuple[ProcessNode, ...]:
        """Nodes in roadmap order (oldest first)."""
        return tuple(self._nodes.values())

    def production_nodes(self) -> Tuple[ProcessNode, ...]:
        """Nodes with non-zero wafer production capacity."""
        return tuple(node for node in self.nodes if node.in_production)

    def require_production(self, name: str) -> ProcessNode:
        """Return the node, raising if it cannot fabricate wafers."""
        node = self[name]
        if not node.in_production:
            raise NodeUnavailableError(name)
        return node

    def override(
        self,
        overrides: Mapping[str, Mapping[str, float]],
        extra_nodes: Optional[Iterable[ProcessNode]] = None,
    ) -> "TechnologyDatabase":
        """A copy with per-node parameter overrides applied.

        ``overrides`` maps node name -> {field: value}. Unknown node names
        raise :class:`UnknownNodeError`. ``extra_nodes`` appends brand-new
        nodes (e.g. a hypothetical "12nm" I/O process).
        """
        for name in overrides:
            if name not in self._nodes:
                raise UnknownNodeError(name, tuple(self._nodes))
        nodes = [
            node.with_overrides(**overrides[node.name])
            if node.name in overrides
            else node
            for node in self.nodes
        ]
        if extra_nodes is not None:
            nodes.extend(extra_nodes)
        return TechnologyDatabase(nodes)

    def scale_wafer_rates(self, fractions: Mapping[str, float]) -> "TechnologyDatabase":
        """A copy with wafer rates scaled per node (capacity disruptions)."""
        overrides = {}
        for name, fraction in fractions.items():
            if fraction < 0.0:
                raise InvalidParameterError(
                    f"capacity fraction must be >= 0, got {fraction} for {name}"
                )
            overrides[name] = {
                "wafer_rate_kwpm": self[name].wafer_rate_kwpm * fraction
            }
        return self.override(overrides)


#: The database :meth:`TechnologyDatabase.default` returns.
_DEFAULT = TechnologyDatabase(build_default_nodes())
