"""Shared harness pieces: host-speed probe, statistics, process hygiene,
cold starts and the result line.

Nothing here imports the program (``repro``); workload modules import it
inside their ``prepare`` functions so that a cold start measures the
program's own import and set-up, not the harness's.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import selectors
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's source tree, put on ``sys.path`` / ``PYTHONPATH``.
SRC = ROOT / "src"
#: Scratch output (server stderr, request logs); listed in ``.gitignore``.
OUT_DIR = ROOT / ".perfbench_out"

#: Each probe kernel is timed ``PROBE_REPEATS`` times; its time is the
#: median run times ``PROBE_REPEATS``.
PROBE_REPEATS = 3
INT_LOOPS = 40_000
FLOAT_LOOPS = 12_000
NUMPY_ROWS = 16


def _int_kernel() -> None:
    acc = 0
    for i in range(INT_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF


class _Point:
    __slots__ = ("a", "b", "table")

    def __init__(self) -> None:
        self.a, self.b, self.table = 1.5, 2.5, {"k": 0.3}


def _float_kernel() -> None:
    point, acc = _Point(), 0.0
    for _ in range(FLOAT_LOOPS):
        x = point.a * 1.0001 + point.b * 0.9999 + point.table["k"]
        point.b = x * 0.5 if x > 3.0 else x
        acc += max(x, 0.1)


@functools.lru_cache(maxsize=None)
def _numpy_rows():
    import numpy

    return numpy.random.default_rng(0).random((NUMPY_ROWS, 4096))


def _numpy_kernel() -> None:
    import numpy

    for row in _numpy_rows():
        numpy.percentile(row, [5.0, 50.0, 95.0])


_INT_CHILD = (
    "acc = 0\n"
    f"for i in range({3 * INT_LOOPS}):\n"
    "    acc = (acc * 31 + i) & 0xFFFFFFFF\n"
)


def _int_pair_kernel() -> None:
    """Two fresh interpreters at once, each running the integer loop:
    like a multi-process boot, it slows when the host's other CPU is
    busy, which a one-thread kernel does not see."""
    children = [
        subprocess.Popen([sys.executable, "-c", _INT_CHILD]) for _ in range(2)
    ]
    for child in children:
        if child.wait() != 0:
            raise RuntimeError(f"probe interpreter exited with {child.returncode}")


#: Probe kernels: name -> (kernel, its reference time in ms). The
#: reference times are the kernels' medians on the 2-vCPU x86-64 host the
#: bounds were set on, rounded up.
KERNELS: Dict[str, Tuple[Callable[[], None], float]] = {
    "int": (_int_kernel, 20.0),
    "float": (_float_kernel, 16.0),
    "numpy": (_numpy_kernel, 10.0),
    "int_pair": (_int_pair_kernel, 300.0),
}


@dataclass(frozen=True)
class Probe:
    """Fixed benchmark-owned kernels timed as a measure of host speed.

    A workload picks the kernels that resemble its own work, so that
    host-speed drift moves pass and probe alike: pure-Python integer and
    float/attribute loops for the scalar model, NumPy percentiles on
    4096-sample rows for the Monte Carlo summaries, two interpreters at
    once for a multi-process server boot. A pass reported as
    ``scaled(pass_ms, probe_ms)`` reads as if the host ran the probe in
    exactly its reference time.
    """

    kernels: Tuple[str, ...] = ("int",)

    def ms(self) -> float:
        """Time the probe, in milliseconds."""
        total = 0.0
        for name in self.kernels:
            kernel = KERNELS[name][0]
            runs = []
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                kernel()
                runs.append(time.perf_counter() - start)
            runs.sort()
            total += runs[len(runs) // 2] * PROBE_REPEATS * 1000.0
        return total

    @property
    def reference_ms(self) -> float:
        return sum(KERNELS[name][1] for name in self.kernels)

    def scaled(self, elapsed: float, probe_ms: float) -> float:
        """``elapsed`` (any unit) rescaled to the reference host speed."""
        return elapsed / probe_ms * self.reference_ms


# -- statistics ---------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (NumPy's default), ``q`` in [0, 1]."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# -- numeric output checks ----------------------------------------------------

#: Relative tolerance of the golden snapshots (tests/golden).
RELATIVE_TOLERANCE = 1e-9


def mismatches(actual, expected, path: str = "", limit: int = 5) -> List[str]:
    """Paths where ``actual`` differs from ``expected`` beyond 1e-9.

    The same structural + relative comparison the golden-master tests
    make (``abs=rel=1e-9``), returning up to ``limit`` differences
    instead of raising.
    """
    found: List[str] = []

    def walk(a, e, where: str) -> None:
        if len(found) >= limit:
            return
        if isinstance(e, dict):
            if not isinstance(a, dict) or set(a) != set(e):
                found.append(f"{where}: keys differ")
                return
            for key in e:
                walk(a[key], e[key], f"{where}.{key}")
        elif isinstance(e, list):
            if not isinstance(a, list) or len(a) != len(e):
                found.append(f"{where}: length differs")
                return
            for i, (x, y) in enumerate(zip(a, e)):
                walk(x, y, f"{where}[{i}]")
        elif isinstance(e, bool) or e is None or isinstance(e, str):
            if a != e:
                found.append(f"{where}: {a!r} != {e!r}")
        elif isinstance(e, (int, float)):
            if isinstance(a, bool) or not isinstance(a, (int, float)):
                found.append(f"{where}: expected a number")
            elif a != e and not abs(a - e) <= max(
                RELATIVE_TOLERANCE * abs(e), RELATIVE_TOLERANCE
            ):
                found.append(f"{where}: {a!r} != {e!r}")
        elif a != e:
            found.append(f"{where}: {a!r} != {e!r}")

    walk(actual, expected, path)
    return found


# -- processes ----------------------------------------------------------------


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (empty if it is gone)."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(p) for p in handle.read().split())
        except FileNotFoundError:
            continue
    return children


def descendant_pids(pid: int) -> List[int]:
    out: List[int] = []
    stack = child_pids(pid)
    while stack:
        child = stack.pop()
        out.append(child)
        stack.extend(child_pids(child))
    return out


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def os_thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


@dataclass
class Hygiene:
    """Guards the probe against work the program left running.

    The baseline is taken once the program is imported (NumPy's BLAS
    threads included). Before every probe the process must be back at
    that baseline, with no child processes alive; otherwise a program
    change could slow the probe and so fake a gain in scaled times.
    """

    py_threads: int = field(default_factory=threading.active_count)
    os_threads: int = field(default_factory=os_thread_count)

    def problems(self) -> List[str]:
        found = []
        if threading.active_count() > self.py_threads:
            found.append(
                f"{threading.active_count() - self.py_threads} extra "
                "Python thread(s) alive"
            )
        if os_thread_count() > self.os_threads:
            found.append(
                f"{os_thread_count() - self.os_threads} extra OS "
                "thread(s) alive"
            )
        children = [pid for pid in child_pids(os.getpid()) if pid_alive(pid)]
        if children:
            found.append(f"child process(es) alive: {children}")
        return found


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses: ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env.pop("REPRO_ENGINE_BACKEND", None)
    return env


def read_line_until(
    proc: subprocess.Popen, marker: str, timeout: float
) -> Optional[str]:
    """Read ``proc.stdout`` until a line containing ``marker``; None if
    the process closed its output or ``timeout`` seconds passed first."""
    deadline = time.perf_counter() + timeout
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            if not selector.select(remaining):
                continue
            line = proc.stdout.readline()
            if not line:
                return None
            if marker in line:
                return line
    finally:
        selector.close()


def cold_start(code: str, then: str = "", timeout: float = 60.0) -> Tuple[float, str]:
    """Spawn a fresh interpreter running ``code``.

    Returns the seconds until it prints ``ready`` and, if ``then`` is
    given, the later line holding ``then`` (else ``""``). The interpreter
    is reaped before returning.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        cwd=str(ROOT),
        env=program_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = read_line_until(proc, "ready", timeout)
        elapsed = time.perf_counter() - start
        later = read_line_until(proc, then, timeout) if then and line else ""
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line is None or later is None or proc.returncode != 0:
        raise RuntimeError(f"cold start exited with {proc.returncode}")
    return elapsed, later


def scaled_cold_starts(
    start: Callable[[], float], runs: int, probe: Probe
) -> Tuple[List[float], List[float]]:
    """Time ``runs`` cold starts between probes.

    ``start`` performs one cold start and returns its seconds. Returns
    the raw seconds and the same rescaled to the reference host speed by
    the mean of the probes just before and just after each start.
    """
    raw: List[float] = []
    scaled: List[float] = []
    before = probe.ms()
    for _ in range(runs):
        elapsed = start()
        after = probe.ms()
        raw.append(elapsed)
        scaled.append(probe.scaled(elapsed, (before + after) / 2))
        before = after
    return raw, scaled


def host_facts(probe: Probe, probe_times: Iterable[float]) -> Dict[str, object]:
    import numpy

    probes = list(probe_times)
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "probe_kernels": list(probe.kernels),
        "probe_ms": median(probes) if probes else None,
        "probe_ref_ms": probe.reference_ms,
    }


# -- results ------------------------------------------------------------------


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: metric name -> value, in the unit BENCHMARK.json gives it.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Metric-name prefixes of layers this workload exercises; per-layer
    #: metrics outside them report 0 (the layer did no work here).
    layers: Tuple[str, ...] = ()
    #: Extra facts printed before the result line.
    facts: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def load_spec() -> Mapping[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(result: Result, trace: bool) -> str:
    """The JSON result line: every metric BENCHMARK.json lists for this
    mode, each with its unit."""
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:  # type: ignore[union-attr]
        name = entry["name"]
        if name in result.metrics:
            value = result.metrics[name]
        elif trace and not any(name.startswith(p) for p in result.layers):
            value = 0.0
        else:
            raise KeyError(f"workload did not measure metric {name!r}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": int(result.attempted),
            "failed": int(result.failed),
            "metrics": metrics,
        }
    )
