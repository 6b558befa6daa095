"""The process heap policy the NumPy engine runs under (glibc only).

A warm stress study evaluates its scenarios in chunks, and each chunk
frees several megabytes of NumPy temporaries. Under glibc's default
policy the allocator hands that memory back to the kernel (it trims the
heap top, or unmaps a large block), and the next chunk page-faults the
same memory in again: on a 2-vCPU x86-64 host with glibc 2.36, about
7,400 minor faults and 11-20 ms of system time per warm 29-scenario,
3-design, 4,096-sample pass. :func:`pin_thresholds` fixes the two
thresholds that decide this, once per process, when
:mod:`repro.engine.portfolio` loads; the same pass then takes under one
fault and no system time, with bit-identical output.

The shard router never imports this module: it loads no NumPy and
allocates nothing large.
"""

from __future__ import annotations

import ctypes
import os

#: ``mallopt`` parameter numbers, from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Blocks below this come from the heap, not from their own ``mmap``,
#: so a freed block is reused instead of unmapped. 32 MiB is glibc's own
#: ceiling for its dynamic threshold on 64-bit, and the largest value
#: ``mallopt`` accepts; the engine's chunk temporaries sit well below it.
MMAP_THRESHOLD = 32 * 1024 * 1024

#: Free memory at the heap top is returned to the kernel only past this.
#: Twice the mmap threshold, where glibc's dynamic rule would put it: a
#: chunk's ~7 MB of freed temporaries then stays mapped for the next.
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _is_glibc() -> bool:
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    return bool(version) and version.startswith("glibc")


def pin_thresholds() -> bool:
    """Set the two thresholds; ``True`` when glibc accepted both.

    Does nothing (and returns ``False``) where the C library is not
    glibc. Setting either threshold also turns off glibc's dynamic
    adjustment of both.
    """
    if not _is_glibc():
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
