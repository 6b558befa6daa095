"""Extension: how robust are the headline findings to calibration error?

Sec. 5 concedes that absolute parameter values cannot be validated and
asks readers to trust *relative* results. This experiment stress-tests
that trust: it resamples the calibrated per-node parameters (density,
tapeout/testing efforts, wafer rates, defect densities) with independent
multiplicative noise and checks, per sample, whether the paper's
qualitative findings still hold:

* the A11's fastest re-release node stays in the mature-node pocket
  (40/28/14 nm) rather than drifting to the extremes;
* 180 nm keeps beating 130/90 nm at 10 M chips (the wafer-rate story);
* the mixed-process Zen 2 stays faster than the all-7 nm chiplet;
* the A11 stays more agile at 7 nm than at 5 nm.

The result is the fraction of perturbed worlds in which each finding
survives — the quantitative version of "the shape holds".

The worlds are the rows of one compiled table: every world's twelve
designs (the A11 at ten nodes, the mixed and all-7 nm Zen 2) compile
together, one technology database per row, and one TTM and one CAS
kernel call score them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from ..analysis.tables import format_table
from ..design.library.a11 import a11
from ..design.library.zen2 import zen2
from ..engine.portfolio import compile_portfolio
from ..engine.scenario import evaluate
from ..errors import InvalidParameterError
from ..market.foundry import Foundry
from ..technology.database import TechnologyDatabase
from ..ttm.model import TTMModel

DEFAULT_SAMPLES = 48
DEFAULT_NOISE = 0.20
DEFAULT_SEED = 20230617
DEFAULT_N_CHIPS = 10e6

#: Zen 2 volume of the mixed-process finding.
ZEN2_N_CHIPS = 25e6

#: Per-node fields perturbed in every sample.
PERTURBED_FIELDS: Tuple[str, ...] = (
    "density_mtr_per_mm2",
    "defect_density_per_cm2",
    "wafer_rate_kwpm",
    "fab_latency_weeks",
    "tapeout_effort",
    "testing_effort",
)

#: The "mature-node pocket" the A11 optimum should stay inside.
MATURE_POCKET: Tuple[str, ...] = ("65nm", "40nm", "28nm", "14nm")

_A11_NODES = (
    "250nm", "180nm", "130nm", "90nm", "65nm",
    "40nm", "28nm", "14nm", "7nm", "5nm",
)


@dataclass(frozen=True)
class RobustnessResult:
    """Survival fraction per finding, over the perturbed samples."""

    samples: int
    noise: float
    survival: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "survival", dict(self.survival))

    @property
    def weakest_finding(self) -> str:
        """The finding most sensitive to calibration error."""
        return min(self.survival.items(), key=lambda item: item[1])[0]

    def table(self) -> str:
        """Survival fractions as rows."""
        rows = [
            [finding, f"{fraction:.0%}"]
            for finding, fraction in self.survival.items()
        ]
        return format_table(
            ["finding", f"survives +-{self.noise:.0%} noise"], rows
        )


def _perturbed_database(
    base: TechnologyDatabase, rng: np.random.Generator, noise: float
) -> TechnologyDatabase:
    # One call per world, node-major: the same stream, in the same order,
    # as one scalar draw per (node, field).
    shape = (len(base), len(PERTURBED_FIELDS))
    factors = (1.0 + rng.uniform(-noise, noise, size=shape)).tolist()
    return base.override({
        node.name: {
            name: getattr(node, name) * factor
            for name, factor in zip(PERTURBED_FIELDS, row)
        }
        for node, row in zip(base.nodes, factors)
    })


def run(
    model: Optional[TTMModel] = None,
    samples: int = DEFAULT_SAMPLES,
    noise: float = DEFAULT_NOISE,
    seed: int = DEFAULT_SEED,
    n_chips: float = DEFAULT_N_CHIPS,
) -> RobustnessResult:
    """Resample the calibration and measure finding survival.

    Each world is a default-knob model at nominal market conditions; the
    passed model contributes only its technology database.
    """
    if samples < 1:
        raise InvalidParameterError(f"samples must be >= 1, got {samples}")
    if not 0.0 < noise < 1.0:
        raise InvalidParameterError(f"noise must be in (0, 1), got {noise}")
    base = (model or TTMModel.nominal()).foundry.technology
    rng = np.random.default_rng(seed)
    worlds = [_perturbed_database(base, rng, noise) for _ in range(samples)]
    designs = tuple(a11(process) for process in _A11_NODES) + (
        zen2(),
        zen2("7nm", "7nm"),
    )
    kernel_model = TTMModel(foundry=Foundry.nominal(base))
    table = compile_portfolio(
        designs * samples,
        [world for world in worlds for _ in designs],
        engineers=kernel_model.engineers,
        alpha=kernel_model.alpha,
        edge_corrected=kernel_model.edge_corrected,
        block_parallel=kernel_model.block_parallel,
    )
    volumes = [n_chips] * len(_A11_NODES) + [ZEN2_N_CHIPS] * 2
    chips = np.tile(volumes, samples)[:, None]
    scores = evaluate(
        kernel_model, None, chips, ("ttm", "cas"), invariants=table
    )
    ttm = scores.ttm.total_weeks[0].reshape(samples, len(designs))
    cas = scores.cas.cas[0].reshape(samples, len(designs))

    node = {process: i for i, process in enumerate(_A11_NODES)}
    # argmin takes the first minimum, as ``min(ttm, key=ttm.get)`` does.
    fastest = np.argmin(ttm[:, : len(_A11_NODES)], axis=1)
    mixed, single = len(_A11_NODES), len(_A11_NODES) + 1
    hits = {
        "A11 optimum stays in the mature pocket": np.isin(
            fastest, [node[process] for process in MATURE_POCKET]
        ),
        "180nm beats 130nm and 90nm": (
            (ttm[:, node["180nm"]] < ttm[:, node["130nm"]])
            & (ttm[:, node["180nm"]] < ttm[:, node["90nm"]])
        ),
        "mixed Zen 2 beats all-7nm chiplet": ttm[:, mixed] < ttm[:, single],
        "A11 more agile at 7nm than 5nm": (
            cas[:, node["7nm"]] > cas[:, node["5nm"]]
        ),
    }
    return RobustnessResult(
        samples=samples,
        noise=noise,
        survival={
            finding: int(np.count_nonzero(survived)) / samples
            for finding, survived in hits.items()
        },
    )
