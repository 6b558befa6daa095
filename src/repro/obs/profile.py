"""Stdlib sampling profiler: where does serve wall time actually go?

A daemon thread wakes at ``hz`` and snapshots every other thread's
Python stack via :func:`sys._current_frames`, folding each into a
``module:function;module:function;...`` collapsed stack (flamegraph
input format).  Sampling — rather than ``sys.setprofile`` event
tracing — is the right trade for a serving process: a tracer taxes
*every* call in every request (blowing the ≤2% instrumentation-overhead
budget by orders of magnitude), while a 97 Hz sampler costs a bounded
~100 stack walks per second regardless of load and still attributes
wall time to the engine kernels that dominate a batch.

Opt-in via ``ttm-cas serve --profile-hz N [--profile-out FILE]``; the
collapsed output feeds any flamegraph renderer, and
:meth:`SamplingProfiler.hotspots` gives a quick in-repo leaf
attribution (which kernel frames the samples landed in).
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["SamplingProfiler"]

#: Default sample rate: prime, so it can't phase-lock with periodic
#: work like the batcher's flush timer.
DEFAULT_HZ = 97.0


class SamplingProfiler:
    """Thread-sampling wall-time profiler with collapsed-stack export."""

    def __init__(self, hz: float = DEFAULT_HZ, max_depth: int = 64) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.interval_s = 1.0 / float(hz)
        self.max_depth = int(max_depth)
        self.samples = 0
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------------

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self.sample_once(skip_thread=own_id)

    def sample_once(self, skip_thread: Optional[int] = None) -> int:
        """Take one sample of every live thread (the profiler thread
        itself excluded); public for deterministic tests."""
        taken = 0
        frames = sys._current_frames()
        for thread_id, frame in frames.items():
            if thread_id == skip_thread:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                module = frame.f_globals.get("__name__", "?")
                stack.append(f"{module}:{code.co_name}")
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            stack.reverse()  # root-first, flamegraph order
            key = tuple(stack)
            with self._lock:
                self._counts[key] = self._counts.get(key, 0) + 1
                self.samples += 1
            taken += 1
        return taken

    # -- export --------------------------------------------------------------

    def counts(self) -> Dict[Tuple[str, ...], int]:
        with self._lock:
            return dict(self._counts)

    def collapsed(self) -> str:
        """Brendan-Gregg collapsed stacks: ``a;b;c count`` per line,
        heaviest first."""
        items = sorted(
            self.counts().items(), key=lambda kv: (-kv[1], kv[0])
        )
        return "\n".join(f"{';'.join(stack)} {count}" for stack, count in items)

    def write_collapsed(self, path: str) -> None:
        text = self.collapsed()
        with open(path, "w") as handle:
            handle.write(text + ("\n" if text else ""))

    def hotspots(
        self, prefix: str = "repro.", limit: int = 10
    ) -> List[Tuple[str, int]]:
        """Leaf attribution: for each sample, the *deepest* frame whose
        module matches ``prefix`` gets the tick — under serve load this
        surfaces the engine kernels where wall time actually lands."""
        leaves: Dict[str, int] = {}
        for stack, count in self.counts().items():
            for frame in reversed(stack):
                if frame.startswith(prefix):
                    leaves[frame] = leaves.get(frame, 0) + count
                    break
        ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: max(0, limit)]
