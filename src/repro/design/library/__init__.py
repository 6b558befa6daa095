"""Prebuilt designs used by the paper's case studies."""

from .a11 import (
    A11_ORIGINAL_PROCESS,
    A11_TOTAL_TRANSISTORS,
    A11_UNIQUE_TRANSISTORS,
    a11,
)
from .accelerators import (
    ACCELERATOR_BLOCK_SIZE,
    ACCELERATORS,
    AcceleratorSpec,
    accelerator_by_key,
)
from .ariane import (
    ARIANE_LOGIC_TRANSISTORS,
    CACHE_SWEEP_KB,
    DEFAULT_DCACHE_KB,
    DEFAULT_ICACHE_KB,
    TRANSISTORS_PER_SRAM_BIT,
    ariane_core_transistors,
    ariane_manycore,
    ariane_manycore_salvage,
    ariane_with_accelerator,
    cache_transistors,
)
from .raven import RAVEN_MIN_AREA_MM2, RAVEN_ORIGINAL_PROCESS, raven_multicore
from .zen2 import (
    COMPUTE_PROCESS,
    INTERPOSER_PROCESS,
    INTERPOSER_YIELD,
    IO_PROCESS,
    compute_die,
    fig13_variants,
    interposer_die,
    io_die,
    zen2,
    zen2_monolithic,
)

__all__ = [
    "A11_ORIGINAL_PROCESS",
    "A11_TOTAL_TRANSISTORS",
    "A11_UNIQUE_TRANSISTORS",
    "ACCELERATORS",
    "ACCELERATOR_BLOCK_SIZE",
    "ARIANE_LOGIC_TRANSISTORS",
    "AcceleratorSpec",
    "CACHE_SWEEP_KB",
    "COMPUTE_PROCESS",
    "DEFAULT_DCACHE_KB",
    "DEFAULT_ICACHE_KB",
    "INTERPOSER_PROCESS",
    "INTERPOSER_YIELD",
    "IO_PROCESS",
    "RAVEN_MIN_AREA_MM2",
    "RAVEN_ORIGINAL_PROCESS",
    "TRANSISTORS_PER_SRAM_BIT",
    "a11",
    "accelerator_by_key",
    "ariane_core_transistors",
    "ariane_manycore",
    "ariane_manycore_salvage",
    "ariane_with_accelerator",
    "cache_transistors",
    "compute_die",
    "fig13_variants",
    "interposer_die",
    "io_die",
    "raven_multicore",
    "zen2",
    "zen2_monolithic",
]
