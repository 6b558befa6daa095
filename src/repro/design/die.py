"""Dies: the unit of fabrication and yield.

A :class:`Die` binds a set of blocks to a process node, plus everything the
fabrication and packaging phases need: count per package (chiplets), an
optional explicit area (for dies whose area is published rather than
derived from density, and for passive interposers), a minimum area (pad
ring / IO limit, used by the Raven study's 1 mm^2 floor), and an optional
yield override (the paper assumes a 99.99%-yield passive interposer).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..errors import InvalidDesignError
from ..technology.node import ProcessNode
from ..technology.salvage import SalvageSpec, salvage_yield
from ..technology.yield_model import DEFAULT_ALPHA, negative_binomial_yield
from .block import Block


@dataclass(frozen=True)
class Die:
    """One die type within a chip design.

    Attributes
    ----------
    name:
        Identifier, unique within the design.
    process:
        Process-node name the die is fabricated on.
    blocks:
        The blocks laid out on the die. May be empty only when
        ``area_mm2`` is given explicitly (passive interposers).
    count:
        Dies of this type per final package (N_die,package contribution).
    top_level_transistors:
        Interconnect/top-level logic that must tape out *after* the blocks
        (the synchronization step in Sec. 6.2). Always unverified.
    area_mm2:
        Explicit die area override; ``None`` derives area from the node's
        transistor density.
    min_area_mm2:
        Lower bound on the derived area (pad-limited designs; the Raven
        study floors dies at 1 mm^2).
    yield_override:
        Fixed die yield replacing Eq. 6 (e.g. 0.9999 for a passive
        interposer); ``None`` uses the negative-binomial model.
    salvage:
        Optional core-salvage ("binning") specification: dies with a
        defective unit can still sell if enough units survive, which
        raises the effective yield above Eq. 6. Mutually exclusive with
        ``yield_override``.
    """

    name: str
    process: str
    blocks: Tuple[Block, ...] = ()
    count: int = 1
    top_level_transistors: float = 0.0
    area_mm2: Optional[float] = None
    min_area_mm2: float = 0.0
    yield_override: Optional[float] = None
    salvage: Optional[SalvageSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidDesignError("die name must be non-empty")
        if not self.process:
            raise InvalidDesignError(f"die {self.name!r}: process must be set")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        names = [block.name for block in self.blocks]
        if len(set(names)) != len(names):
            raise InvalidDesignError(
                f"die {self.name!r}: duplicate block names {names}"
            )
        if self.count < 1:
            raise InvalidDesignError(
                f"die {self.name!r}: count must be >= 1, got {self.count}"
            )
        if self.top_level_transistors < 0.0:
            raise InvalidDesignError(
                f"die {self.name!r}: top-level transistors must be >= 0"
            )
        if self.area_mm2 is not None and self.area_mm2 <= 0.0:
            raise InvalidDesignError(
                f"die {self.name!r}: explicit area must be positive"
            )
        if self.min_area_mm2 < 0.0:
            raise InvalidDesignError(
                f"die {self.name!r}: minimum area must be >= 0"
            )
        if not self.blocks and self.area_mm2 is None and self.min_area_mm2 <= 0.0:
            raise InvalidDesignError(
                f"die {self.name!r}: a die with no blocks needs an explicit "
                "or minimum area"
            )
        if self.yield_override is not None and not 0.0 < self.yield_override <= 1.0:
            raise InvalidDesignError(
                f"die {self.name!r}: yield override must be in (0, 1]"
            )
        if self.yield_override is not None and self.salvage is not None:
            raise InvalidDesignError(
                f"die {self.name!r}: yield override and salvage are "
                "mutually exclusive"
            )

    # -- Transistor accounting ------------------------------------------------

    def transistor_totals(self) -> Tuple[float, float, float]:
        """``(ntt, nut, parallel_nut)`` from one pass over the blocks.

        ``ntt`` and ``nut`` read it, and so does the compiled table: each
        sum adds the blocks in order, then the top level. ``parallel_nut``
        is the NUT on the tapeout critical path when the blocks tape out
        in parallel: the largest block's NUT, then the top level.
        """
        ntt = nut = 0
        largest = 0.0
        for block in self.blocks:
            ntt += block.total_transistors
            block_nut = block.nut
            nut += block_nut
            if block_nut > largest:
                largest = block_nut
        top = self.top_level_transistors
        return ntt + top, nut + top, largest + top

    @property
    def ntt(self) -> float:
        """Total transistors on one die (N_TT,die in Eq. 7)."""
        return self.transistor_totals()[0]

    @property
    def nut(self) -> float:
        """Unique/unverified transistors (N_UT in Eq. 2)."""
        return self.transistor_totals()[1]

    @property
    def is_passive(self) -> bool:
        """True for dies with no transistors (passive interposers)."""
        return self.ntt == 0.0

    # -- Geometry and yield ----------------------------------------------------

    def area_on(self, node: ProcessNode) -> float:
        """Die area in mm^2 at the given node (A_die in Eqs. 6 and 7)."""
        self._check_node(node)
        if self.area_mm2 is not None:
            return max(self.area_mm2, self.min_area_mm2)
        derived = self.ntt / node.density_transistors_per_mm2
        return max(derived, self.min_area_mm2)

    def yield_on(self, node: ProcessNode, alpha: float = DEFAULT_ALPHA) -> float:
        """Sellable-die yield: Eq. 6, a fixed override, or salvage."""
        if self.yield_override is not None:
            return self.yield_override
        self._check_node(node)
        if self.salvage is not None:
            return salvage_yield(
                self.area_on(node),
                node.defect_density_per_cm2,
                self.salvage,
                alpha=alpha,
            )
        return negative_binomial_yield(
            self.area_on(node), node.defect_density_per_cm2, alpha=alpha
        )

    # -- Derivation -------------------------------------------------------------

    def retarget(self, process: str) -> "Die":
        """This die ported to another process node.

        An explicit ``area_mm2`` override is dropped because it was only
        valid at the original node; the retargeted die derives its area
        from the new node's density (the paper's porting assumption).
        """
        return replace(self, process=process, area_mm2=None)

    def with_count(self, count: int) -> "Die":
        """This die with a different per-package count."""
        return replace(self, count=count)

    def _check_node(self, node: ProcessNode) -> None:
        if node.name != self.process:
            raise InvalidDesignError(
                f"die {self.name!r} targets {self.process!r} but was "
                f"evaluated with node {node.name!r}"
            )
