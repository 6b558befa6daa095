"""Ariane-based multicore designs (cache-sizing case study, Sec. 6.1).

The paper evaluates a 16-core chip built from Ariane [129] (originally a
16 KB instruction cache and 32 KB data cache per core) while sweeping both
caches from 1 KB to 1 MB. Transistor budgets follow the standard 6T SRAM
bit cell for caches; the core-logic budget is calibrated so the reference
(16 KB, 32 KB) configuration matches Table 3's "area relative to Ariane"
column (45.62 M / 18.18x ~= 2.51 M transistors per core).
"""

from __future__ import annotations

from typing import Tuple

from ...errors import InvalidDesignError
from ..block import Block
from ..chip import ChipDesign
from ..die import Die

#: Transistors in one SRAM bit cell (6T).
TRANSISTORS_PER_SRAM_BIT = 6

#: Ariane core logic (everything but the L1 caches), calibrated against
#: Table 3's area-relative-to-Ariane column for the original (16, 32) KB
#: configuration.
ARIANE_LOGIC_TRANSISTORS = 151_000.0

#: Original Ariane cache configuration (KB): 16 KB I$, 32 KB D$.
DEFAULT_ICACHE_KB = 16
DEFAULT_DCACHE_KB = 32

#: Shared uncore (NoC routers, L2 slices, IO) of the 16-core chip.
UNCORE_TRANSISTORS = 2_000_000.0

#: Top-level integration logic taped out after the blocks synchronize.
TOP_LEVEL_TRANSISTORS = 500_000.0

#: The uncore block: frozen and the same in every design, so all share it.
_UNCORE = Block(name="uncore", transistors=UNCORE_TRANSISTORS)

#: Cache capacities swept in Figs. 4-6.
CACHE_SWEEP_KB: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def cache_transistors(capacity_kb: float) -> float:
    """Transistors in a ``capacity_kb`` SRAM array (6T bit cells)."""
    if capacity_kb < 0.0:
        raise InvalidDesignError(
            f"cache capacity must be >= 0 KB, got {capacity_kb}"
        )
    return capacity_kb * 1024.0 * 8.0 * TRANSISTORS_PER_SRAM_BIT


def ariane_core_transistors(
    icache_kb: float = DEFAULT_ICACHE_KB,
    dcache_kb: float = DEFAULT_DCACHE_KB,
) -> float:
    """Transistors in one Ariane core with the given L1 capacities."""
    return (
        ARIANE_LOGIC_TRANSISTORS
        + cache_transistors(icache_kb)
        + cache_transistors(dcache_kb)
    )


def ariane_manycore(
    process: str,
    cores: int = 16,
    icache_kb: float = DEFAULT_ICACHE_KB,
    dcache_kb: float = DEFAULT_DCACHE_KB,
    name: str = "",
) -> ChipDesign:
    """A ``cores``-core Ariane chip on one process node.

    The core is one reusable block (tapeout effort paid once, Sec. 3.2);
    the uncore and top level are unique. Caches ride inside the core block
    but are *not* marked pre-verified: resizing a cache re-opens its
    timing closure, so cache bits count toward NUT exactly once (per the
    core block), matching the case study's "larger caches cost area, not
    extra tapeout" framing.
    """
    if cores < 1:
        raise InvalidDesignError(f"core count must be >= 1, got {cores}")
    core = Block(
        name="ariane-core",
        transistors=ariane_core_transistors(icache_kb, dcache_kb),
        instances=cores,
    )
    die = Die(
        name="ariane-die",
        process=process,
        blocks=(core, _UNCORE),
        top_level_transistors=TOP_LEVEL_TRANSISTORS,
    )
    display = name or (
        f"Ariane {cores}-core ({icache_kb:g}K I$/{dcache_kb:g}K D$) @ {process}"
    )
    return ChipDesign(name=display, dies=(die,))


def ariane_manycore_salvage(
    process: str,
    cores: int = 16,
    required_cores: int = 14,
    icache_kb: float = DEFAULT_ICACHE_KB,
    dcache_kb: float = DEFAULT_DCACHE_KB,
    name: str = "",
) -> ChipDesign:
    """An Ariane manycore sold with core salvage (binning).

    Dies with up to ``cores - required_cores`` defective cores still ship
    as a cut-down SKU, raising the sellable yield above Eq. 6 — the
    binning practice the paper mentions in Sec. 2.1, made quantitative by
    :mod:`repro.technology.salvage`.
    """
    from ...technology.salvage import SalvageSpec

    base = ariane_manycore(
        process, cores=cores, icache_kb=icache_kb, dcache_kb=dcache_kb
    )
    die = base.dies[0]
    core_transistors = ariane_core_transistors(icache_kb, dcache_kb) * cores
    spec = SalvageSpec(
        n_units=cores,
        required_units=required_cores,
        unit_area_fraction=core_transistors / die.ntt,
    )
    salvaged = Die(
        name=die.name,
        process=die.process,
        blocks=die.blocks,
        top_level_transistors=die.top_level_transistors,
        salvage=spec,
    )
    display = name or (
        f"Ariane {cores}-core (sell >= {required_cores}) @ {process}"
    )
    return ChipDesign(name=display, dies=(salvaged,))


def ariane_with_accelerator(
    process: str,
    accelerator: Block,
    cores: int = 1,
    name: str = "",
) -> ChipDesign:
    """An Ariane chip with an accelerator block bolted on (Sec. 6.4)."""
    base = ariane_manycore(process, cores=cores)
    die = base.dies[0]
    extended = Die(
        name=die.name,
        process=die.process,
        blocks=die.blocks + (accelerator,),
        top_level_transistors=die.top_level_transistors,
    )
    display = name or f"Ariane + {accelerator.name} @ {process}"
    return ChipDesign(name=display, dies=(extended,))
