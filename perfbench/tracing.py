"""In-memory spans around the program's public functions.

The traced run wraps public functions *where their callers look them
up* — the defining module, every ``repro`` module that imported the name,
or the class attribute for methods — so the program's own code is not
touched. Each call records ``(layer, start, end, parent)``; spans stay in
memory and are reduced at the end.

A span's self time is its duration minus its child spans'; a pass's
uncovered remainder (the root span's self time) is reported as
``other``, so the self times of all layers plus ``other`` add up to the
traced total.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the per-pass root span; its self time is ``other``.
ROOT_LAYER = "other"


@dataclass(slots=True)
class Span:
    layer: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    count: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class LayerTotals:
    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0
    count: int = 0


class SpanRecorder:
    """Records nested spans from one thread.

    Wrapped calls made on another thread would break the nesting the
    self-time arithmetic relies on, so they are counted, not recorded,
    and :meth:`layer_totals` raises if any occurred.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self.foreign_calls = 0

    @contextmanager
    def span(self, layer: str) -> Iterator[Span]:
        """A span around a block of the harness's own (recording-thread)
        code, such as one pass or one experiment."""
        record = Span(
            layer,
            time.perf_counter_ns(),
            parent=self._stack[-1] if self._stack else -1,
        )
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end_ns = time.perf_counter_ns()

    def wrap(
        self,
        layer: str,
        function: Callable,
        count: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """``function`` recording one ``layer`` span per call.

        ``count`` maps the call's result to a work count (e.g. cube
        cells) summed per layer. The span logic is inlined rather than
        using :meth:`span`: wrapped methods run tens of thousands of
        times per pass, and the overhead lands in the traced times.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        thread = self._thread

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != thread:
                self.foreign_calls += 1
                return function(*args, **kwargs)
            record = Span(layer, clock(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(record)
            try:
                result = function(*args, **kwargs)
                if count is not None:
                    record.count = count(result)
                return result
            finally:
                stack.pop()
                record.end_ns = clock()

        return wrapper

    def layer_totals(self) -> Dict[str, LayerTotals]:
        """Per-layer call count, inclusive and self time.

        Inclusive time counts only spans with no ancestor of the same
        layer, so a layer calling itself is not counted twice.
        """
        if self.foreign_calls:
            raise RuntimeError(
                f"{self.foreign_calls} wrapped call(s) ran off the "
                "recording thread; self times would not add up"
            )
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.duration_ns
        totals: Dict[str, LayerTotals] = {}
        for index, span in enumerate(self.spans):
            entry = totals.setdefault(span.layer, LayerTotals())
            entry.calls += 1
            entry.self_ns += span.duration_ns - child_ns[index]
            entry.count += span.count
            ancestor = span.parent
            while ancestor >= 0 and self.spans[ancestor].layer != span.layer:
                ancestor = self.spans[ancestor].parent
            if ancestor < 0:
                entry.inclusive_ns += span.duration_ns
        return totals

    def root_total_ns(self) -> int:
        return sum(s.duration_ns for s in self.spans if s.parent < 0)


@dataclass
class Patcher:
    """Swaps attributes for wrappers and puts the originals back."""

    recorder: SpanRecorder
    _undo: List[Tuple[object, str, Any]] = field(default_factory=list)

    def _set(self, owner: object, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind(self, function: Callable, replacement: Callable) -> None:
        """Point every ``repro`` module name bound to ``function`` (its
        home module and each ``from ... import`` site) at ``replacement``."""
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._set(module, name, replacement)
                    patched += 1
        if not patched:
            raise RuntimeError(f"{function.__qualname__} is not imported")

    def function(
        self,
        layer: str,
        function: Callable,
        count: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Wrap a module-level function wherever it is looked up."""
        self._rebind(function, self.recorder.wrap(layer, function, count))

    def method(self, layer: str, cls: type, name: str) -> None:
        """Wrap a plain method or classmethod on its class."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.recorder.wrap(layer, raw.__func__))
        else:
            wrapped = self.recorder.wrap(layer, raw)
        self._set(cls, name, wrapped)

    def factory(self, layer: str, function: Callable) -> None:
        """Wrap a function that *returns* a callable: the returned
        callable's calls are recorded under ``layer``."""
        recorder = self.recorder

        @functools.wraps(function)
        def make(*args, **kwargs):
            return recorder.wrap(layer, function(*args, **kwargs))

        self._rebind(function, make)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
