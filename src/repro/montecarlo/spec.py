"""Sampling specifications: which supply-chain inputs vary, and how.

A :class:`SamplingSpec` names the joint distribution a Monte Carlo study
draws from. Each :class:`SampledParameter` binds one uniform
:class:`~repro.sensitivity.distributions.Factor` (the same primitive the
Sobol sensitivity layer uses) to one *target* — the kernel-level knob the
draw feeds:

========================  ====================================================
target                    meaning
========================  ====================================================
``"n_chips"``             demand: final chips ordered
``"capacity"``            capacity fraction — global, or per-node via ``node``
``"queue_weeks"``         quoted lead time applied to every node (Sec. 6.3)
``"d0_scale"``            multiplier on every node's defect density D0
``"wafer_rate_scale"``    multiplier on every node's maximum wafer rate
========================  ====================================================

Draws map straight onto the sampled-parameter keywords of
:func:`repro.engine.scenario.evaluate`, so an n-sample study is one
array call per chunk — never a Python loop over scalar model
evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import InvalidParameterError
from ..sensitivity.distributions import DEFAULT_VARIATION, Factor, sample_matrix
from .sampling import STRATEGIES, RankCorrelation, sample_factor_matrix

#: Recognized sampling targets.
TARGETS: Tuple[str, ...] = (
    "n_chips",
    "capacity",
    "queue_weeks",
    "d0_scale",
    "wafer_rate_scale",
)


@dataclass(frozen=True)
class SampledParameter:
    """One uniformly distributed supply-chain input.

    Attributes
    ----------
    target:
        One of :data:`TARGETS`.
    factor:
        The uniform range to draw from (name, nominal, relative
        half-width).
    node:
        Only valid for ``target="capacity"``: restricts the draw to one
        process node (other nodes keep the market conditions' fraction).
        ``None`` samples a global capacity fraction.
    """

    target: str
    factor: Factor
    node: Optional[str] = None

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise InvalidParameterError(
                f"target must be one of {TARGETS}, got {self.target!r}"
            )
        if self.node is not None and self.target != "capacity":
            raise InvalidParameterError(
                f"node= only applies to capacity draws, got node={self.node!r} "
                f"for target {self.target!r}"
            )

    @property
    def key(self) -> Tuple[str, Optional[str]]:
        """Uniqueness key within a spec."""
        return (self.target, self.node)


@dataclass(frozen=True)
class SamplingSpec:
    """A joint (independent-uniform) distribution over supply inputs.

    Attributes
    ----------
    parameters:
        The varied inputs. ``(target, node)`` pairs must be unique, and a
        global capacity draw cannot be mixed with per-node capacity draws
        (the kernels cannot express "scale everything *and* override one
        node" in a single capacity argument).
    n_chips:
        Nominal demand used when ``"n_chips"`` is not sampled.
    correlation:
        Optional Gaussian-copula rank correlation between factor names
        (:class:`~repro.montecarlo.sampling.RankCorrelation`). ``None``
        keeps the factors independent.
    strategy:
        ``"iid"`` (default) or ``"lhs"`` (Latin hypercube). With every
        sampling field at its default, :meth:`sample` takes the legacy
        path and its draws are bit-for-bit unchanged.
    antithetic:
        Mirror the second half of each draw (``1.0 - u``), pairing
        negatively correlated samples; requires even sample counts.
    """

    parameters: Tuple[SampledParameter, ...]
    n_chips: float
    correlation: Optional[RankCorrelation] = None
    strategy: str = "iid"
    antithetic: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", tuple(self.parameters))
        if not self.parameters:
            raise InvalidParameterError(
                "a sampling spec needs at least one parameter"
            )
        if self.n_chips <= 0.0:
            raise InvalidParameterError(
                f"nominal n_chips must be positive, got {self.n_chips}"
            )
        if self.strategy not in STRATEGIES:
            raise InvalidParameterError(
                f"sampling strategy must be one of {STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.correlation is not None:
            # Validate the pair names and positive definiteness up
            # front, not at first draw.
            self.correlation.cholesky(
                tuple(p.factor.name for p in self.parameters)
            )
        keys = [p.key for p in self.parameters]
        if len(set(keys)) != len(keys):
            raise InvalidParameterError(
                f"duplicate sampled parameters: {sorted(keys)}"
            )
        capacity_nodes = {
            p.node for p in self.parameters if p.target == "capacity"
        }
        if None in capacity_nodes and len(capacity_nodes) > 1:
            raise InvalidParameterError(
                "cannot mix a global capacity draw with per-node capacity draws"
            )

    @property
    def factor_names(self) -> Tuple[str, ...]:
        """Factor names in parameter order."""
        return tuple(p.factor.name for p in self.parameters)

    @property
    def uses_default_sampling(self) -> bool:
        """True when every sampling option is at its legacy default."""
        return (
            self.correlation is None
            and self.strategy == "iid"
            and not self.antithetic
        )

    def sample(
        self, n_samples: int, rng: np.random.Generator
    ) -> "ParameterSamples":
        """Draw ``n_samples`` joint rows.

        With default sampling options this is the legacy independent
        draw — same RNG consumption, bit-for-bit identical matrices.
        """
        factors = [p.factor for p in self.parameters]
        if self.uses_default_sampling:
            matrix = sample_matrix(factors, n_samples, rng)
        else:
            matrix = sample_factor_matrix(
                factors,
                n_samples,
                rng,
                correlation=self.correlation,
                strategy=self.strategy,
                antithetic=self.antithetic,
            )
        return ParameterSamples(spec=self, matrix=matrix)


@dataclass(frozen=True)
class ParameterSamples:
    """An ``(n_samples, k)`` draw with kernel-keyword accessors."""

    spec: SamplingSpec
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.spec.parameters):
            raise InvalidParameterError(
                f"sample matrix shape {matrix.shape} does not match "
                f"{len(self.spec.parameters)} spec parameters"
            )
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    def column(
        self, target: str, node: Optional[str] = None
    ) -> Optional[np.ndarray]:
        """The sampled column for ``(target, node)``, or ``None``."""
        for i, parameter in enumerate(self.spec.parameters):
            if parameter.key == (target, node):
                return self.matrix[:, i]
        return None

    @property
    def n_chips(self) -> np.ndarray:
        """Per-sample demand (sampled column or the nominal)."""
        sampled = self.column("n_chips")
        if sampled is not None:
            return sampled
        return np.full(self.n_samples, self.spec.n_chips)

    @property
    def capacity(
        self,
    ) -> Optional[Union[np.ndarray, Dict[str, np.ndarray]]]:
        """Kernel ``capacity`` argument: global array, node mapping, or None."""
        global_draw = self.column("capacity")
        if global_draw is not None:
            return global_draw
        per_node = {
            p.node: self.matrix[:, i]
            for i, p in enumerate(self.spec.parameters)
            if p.target == "capacity"
        }
        return per_node or None

    @property
    def queue_weeks(self) -> Optional[np.ndarray]:
        return self.column("queue_weeks")

    @property
    def d0_scale(self) -> Optional[np.ndarray]:
        return self.column("d0_scale")

    @property
    def wafer_rate_scale(self) -> Optional[np.ndarray]:
        return self.column("wafer_rate_scale")

    def kernel_kwargs(self) -> Dict[str, object]:
        """The supply keyword arguments of ``evaluate``."""
        return {
            "capacity": self.capacity,
            "queue_weeks": self.queue_weeks,
            "d0_scale": self.d0_scale,
            "wafer_rate_scale": self.wafer_rate_scale,
        }


def default_supply_spec(
    n_chips: float,
    variation: float = DEFAULT_VARIATION,
    queue_weeks: float = 2.0,
    capacity: float = 0.9,
    nodes: Sequence[str] = (),
) -> SamplingSpec:
    """The standard joint supply-uncertainty spec used by the CLI/studies.

    Varies demand, capacity (globally, or per node when ``nodes`` is
    given), queue time, defect density, and wafer rate around their
    nominals with the paper's default +-10% uniform error model.
    """
    if nodes:
        capacity_params = tuple(
            SampledParameter(
                "capacity",
                Factor(f"capacity[{node}]", capacity, variation),
                node=node,
            )
            for node in nodes
        )
    else:
        capacity_params = (
            SampledParameter("capacity", Factor("capacity", capacity, variation)),
        )
    return SamplingSpec(
        parameters=(
            SampledParameter("n_chips", Factor("n_chips", n_chips, variation)),
            *capacity_params,
            SampledParameter(
                "queue_weeks", Factor("queue_weeks", queue_weeks, variation)
            ),
            SampledParameter("d0_scale", Factor("D0_scale", 1.0, variation)),
            SampledParameter(
                "wafer_rate_scale", Factor("wafer_rate_scale", 1.0, variation)
            ),
        ),
        n_chips=n_chips,
    )


def default_correlated_spec(
    n_chips: float,
    variation: float = DEFAULT_VARIATION,
    queue_weeks: float = 2.0,
    capacity: float = 0.9,
    strategy: str = "lhs",
    antithetic: bool = True,
) -> SamplingSpec:
    """The default joint spec with realistic supply-side dependence.

    Tight capacity goes with long queues and slow wafer rates (a
    stressed fab is stressed everywhere), and defect excursions
    correlate with reduced effective rates; demand stays independent of
    the supply side. Latin-hypercube + antithetic sampling are on by
    default — they change estimator variance, not the model.
    """
    base = default_supply_spec(
        n_chips,
        variation=variation,
        queue_weeks=queue_weeks,
        capacity=capacity,
    )
    correlation = RankCorrelation(
        {
            ("capacity", "queue_weeks"): -0.6,
            ("capacity", "wafer_rate_scale"): 0.5,
            ("queue_weeks", "wafer_rate_scale"): -0.4,
            ("D0_scale", "wafer_rate_scale"): -0.3,
        }
    )
    return SamplingSpec(
        parameters=base.parameters,
        n_chips=base.n_chips,
        correlation=correlation,
        strategy=strategy,
        antithetic=antithetic,
    )


__all__ = [
    "ParameterSamples",
    "RankCorrelation",
    "SampledParameter",
    "SamplingSpec",
    "TARGETS",
    "default_correlated_spec",
    "default_supply_spec",
]
