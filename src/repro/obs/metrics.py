"""Metrics registry: counters, gauges, and histograms with exporters.

The engine's hot paths (batch kernels, the invariant LRU, ``parallel_map``)
report what they did through a process-wide :class:`MetricsRegistry` —
invariant-cache hits/misses/evictions, kernel invocation counts and
element throughput, non-finite guard trips. The registry is
zero-dependency and thread-safe: every mutation happens under one
re-entrant lock, so counts stay exact under the thread executor (the
same guarantee the invariant cache's private counters used to make).

Exporters
---------
:meth:`MetricsRegistry.to_prometheus_text` renders the classic
Prometheus text exposition format (``# HELP`` / ``# TYPE`` headers, one
``name{labels} value`` sample per line); :meth:`MetricsRegistry.to_json`
is the same content as JSON for tooling that prefers structure;
:meth:`MetricsRegistry.snapshot` flattens everything to a
``{"name{label=\"v\"}": value}`` dict, which is what
:class:`~repro.obs.manifest.RunManifest` diffs to attribute activity to
one run.

Instruments are registered once and then reused: asking for a name twice
returns the same object (and asking with a conflicting kind raises), so
modules can cache handles at import time and pay only an attribute call
plus a lock on the hot path. :meth:`MetricsRegistry.reset` zeroes values
but keeps registrations, so exports always show the full instrument set.
"""

from __future__ import annotations

import json
import re
import threading
from collections import OrderedDict
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

#: One ``name="value"`` label pair inside a series' brace block.
_LABEL_PAIR = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')

from ..errors import InvalidParameterError

#: Default histogram bucket upper bounds (seconds-flavoured, +Inf implied).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)

#: Label-set key: sorted ``(name, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def estimate_quantile(
    bounds: Sequence[float],
    cumulative_counts: Sequence[float],
    total: float,
    q: float,
) -> float:
    """Estimate one quantile from cumulative histogram buckets.

    Standard ``histogram_quantile`` linear interpolation: the target
    rank ``q * total`` is located in the first bucket whose cumulative
    count reaches it, then interpolated between that bucket's bounds
    (the lowest bucket interpolates from 0). Mass beyond the last
    finite bound clamps to that bound — the honest answer buckets can
    give without an upper edge.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"quantile must be in [0, 1], got {q!r}")
    if total <= 0 or not bounds:
        return 0.0
    rank = q * total
    previous_bound = 0.0
    previous_cum = 0.0
    for bound, cum in zip(bounds, cumulative_counts):
        if cum >= rank and cum > previous_cum:
            fraction = (rank - previous_cum) / (cum - previous_cum)
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_cum = bound, cum
    return float(bounds[-1])


#: The quantiles every export surfaces.
EXPORT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def _quantile_entry(
    bounds: Sequence[float],
    cumulative_counts: Sequence[float],
    total: float,
    qs: Sequence[float] = EXPORT_QUANTILES,
) -> Dict[str, float]:
    return {
        f"p{round(q * 100):d}": estimate_quantile(
            bounds, cumulative_counts, total, q
        )
        for q in qs
    }


class _Instrument:
    """Shared bookkeeping for one named metric (all label series)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.RLock):
        self.name = name
        self.help = help_text
        self._lock = lock
        self._values: "OrderedDict[LabelKey, float]" = OrderedDict()

    def reset(self) -> None:
        """Zero every label series (registration survives)."""
        with self._lock:
            self._values.clear()

    def series(self) -> Dict[LabelKey, float]:
        """Snapshot of every ``label-set -> value`` pair."""
        with self._lock:
            return dict(self._values)

    def value(self, **labels: object) -> float:
        """Current value of one label series (0 when never touched)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)


class Counter(_Instrument):
    """Monotonically increasing count (resettable only via ``reset``)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise InvalidParameterError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def _inc_key(self, key: LabelKey, amount: float = 1.0) -> None:
        """Hot-path increment with a precomputed label key.

        ``repro.obs.instrument`` builds the key once per instrumented
        site, keeping per-call cost to one lock and two dict operations
        (``tests/obs/test_overhead.py`` holds hooks to <= 2% of a pass's
        CPU).
        """
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A value that goes both ways (cache entries, worker counts)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` adds a sample; export renders ``_bucket{le=...}``
    cumulative counts plus ``_sum`` and ``_count`` series.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.RLock,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, lock)
        if not buckets or list(buckets) != sorted(buckets):
            raise InvalidParameterError(
                f"histogram {name!r} buckets must be a sorted non-empty "
                f"sequence, got {buckets!r}"
            )
        self.buckets = tuple(float(b) for b in buckets)
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._totals[key] = self._totals.get(key, 0) + 1

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._sums.clear()
            self._totals.clear()

    def series(self) -> Dict[LabelKey, float]:
        """``_count`` per label series (the headline number)."""
        with self._lock:
            return {key: float(total) for key, total in self._totals.items()}

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._totals.get(_label_key(labels), 0))

    def sum(self, **labels: object) -> float:
        """Sum of observed values for one label series."""
        with self._lock:
            return self._sums.get(_label_key(labels), 0.0)

    def bucket_counts(self, **labels: object) -> Tuple[int, ...]:
        """Cumulative per-bucket counts (``+Inf`` bucket excluded)."""
        with self._lock:
            return tuple(
                self._counts.get(_label_key(labels), [0] * len(self.buckets))
            )

    def quantile(self, q: float, **labels: object) -> float:
        """Estimated ``q``-quantile for one label series (see
        :func:`estimate_quantile` for the interpolation rules)."""
        with self._lock:
            key = _label_key(labels)
            counts = tuple(self._counts.get(key, ()))
            total = self._totals.get(key, 0)
        return estimate_quantile(self.buckets, counts, total, q)


class MetricsRegistry:
    """Named instruments plus the exporters; see the module docstring."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: "OrderedDict[str, _Instrument]" = OrderedDict()

    def _register(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise InvalidParameterError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                return existing
            instrument = cls(name, help_text, self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create a counter."""
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._register(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram."""
        return self._register(Histogram, name, help_text, buckets=buckets)

    def instruments(self) -> Tuple[_Instrument, ...]:
        """Every registered instrument, in registration order."""
        with self._lock:
            return tuple(self._instruments.values())

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument registered under ``name`` (None if absent)."""
        with self._lock:
            return self._instruments.get(name)

    def reset(self) -> None:
        """Zero every instrument's values; registrations survive."""
        for instrument in self.instruments():
            instrument.reset()

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{"name{labels}": value}`` view of every series.

        Histograms contribute their ``name_count`` and ``name_sum``
        series (buckets are an export detail, not a diffable quantity).
        """
        flat: Dict[str, float] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                with self._lock:
                    for key, total in instrument._totals.items():
                        suffix = _label_suffix(key)
                        flat[f"{instrument.name}_count{suffix}"] = float(total)
                        flat[f"{instrument.name}_sum{suffix}"] = (
                            instrument._sums.get(key, 0.0)
                        )
                continue
            for key, value in instrument.series().items():
                flat[f"{instrument.name}{_label_suffix(key)}"] = value
        return flat

    def to_prometheus_text(self) -> str:
        """Classic Prometheus text exposition of every instrument.

        Every registered instrument gets its ``# HELP`` / ``# TYPE``
        header even when it has no samples yet; unlabeled instruments
        additionally always render a ``name 0`` sample, so a metrics
        dump proves which instruments exist, not just which fired.
        """
        lines: List[str] = []
        for instrument in self.instruments():
            help_text = instrument.help or instrument.name
            lines.append(f"# HELP {instrument.name} {help_text}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                with self._lock:
                    keys = list(instrument._totals)
                    for key in keys:
                        suffix_pairs = list(key)
                        counts = instrument._counts[key]
                        for bound, count in zip(instrument.buckets, counts):
                            le_key = tuple(suffix_pairs + [("le", repr(bound))])
                            lines.append(
                                f"{instrument.name}_bucket"
                                f"{_label_suffix(le_key)} {count}"
                            )
                        inf_key = tuple(suffix_pairs + [("le", "+Inf")])
                        lines.append(
                            f"{instrument.name}_bucket"
                            f"{_label_suffix(inf_key)} "
                            f"{instrument._totals[key]}"
                        )
                        lines.append(
                            f"{instrument.name}_sum{_label_suffix(key)} "
                            f"{_format_value(instrument._sums[key])}"
                        )
                        lines.append(
                            f"{instrument.name}_count{_label_suffix(key)} "
                            f"{instrument._totals[key]}"
                        )
                continue
            series = instrument.series()
            if not series:
                lines.append(f"{instrument.name} 0")
                continue
            for key, value in series.items():
                lines.append(
                    f"{instrument.name}{_label_suffix(key)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> Dict[str, object]:
        """Structured export mirroring the Prometheus text content."""
        out: Dict[str, object] = {
            "schema": METRICS_SCHEMA,
            "metrics": [],
        }
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                # Histogram series carry the sum, the cumulative bucket
                # counts and estimated p50/p95/p99 alongside the count,
                # so JSON consumers never redo bucket math by hand.
                with instrument._lock:
                    series = [
                        {
                            "labels": dict(key),
                            "value": float(total),
                            "sum": instrument._sums.get(key, 0.0),
                            "counts": list(instrument._counts.get(key, ())),
                            "quantiles": _quantile_entry(
                                instrument.buckets,
                                instrument._counts.get(key, ()),
                                total,
                            ),
                        }
                        for key, total in instrument._totals.items()
                    ]
                entry: Dict[str, object] = {
                    "name": instrument.name,
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "series": series,
                    "buckets": list(instrument.buckets),
                }
            else:
                entry = {
                    "name": instrument.name,
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "series": [
                        {"labels": dict(key), "value": value}
                        for key, value in instrument.series().items()
                    ],
                }
            out["metrics"].append(entry)  # type: ignore[union-attr]
        return out

    def to_json(self, indent: int = 2) -> str:
        """JSON text of :meth:`to_jsonable`."""
        return json.dumps(self.to_jsonable(), indent=indent, sort_keys=True)

    def write_prometheus(self, path: str) -> None:
        """Write the Prometheus text exposition to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_prometheus_text())


#: Schema marker for the JSON metrics export (``ttm-cas obs`` sniffs it).
METRICS_SCHEMA = "repro.obs/metrics@1"

#: The process-wide registry every instrumented module reports into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def metrics_delta(
    before: Mapping[str, float], after: Mapping[str, float]
) -> Dict[str, float]:
    """Per-series ``after - before`` over :meth:`MetricsRegistry.snapshot`.

    Series absent from ``before`` count from zero; series that did not
    move are dropped, so the delta names exactly what one run did.
    """
    delta: Dict[str, float] = {}
    for name, value in after.items():
        moved = value - before.get(name, 0.0)
        if moved != 0.0:
            delta[name] = moved
    return delta


def _parse_series(series: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Split one sample's series into (metric name, label pairs)."""
    if series.endswith("}") and "{" in series:
        name, inner = series[:-1].split("{", 1)
        pairs = [
            (match.group(1), match.group(2))
            for match in _LABEL_PAIR.finditer(inner)
        ]
        return name, pairs
    return series, []


def relabel_prometheus_line(line: str, labels: Mapping[str, str]) -> str:
    """Inject ``labels`` into one exposition line (comments pass through).

    Existing labels win on collision — a sample already carrying a
    ``worker`` label (say, from a nested aggregation) is not rewritten.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#") or not labels:
        return line
    series, _, value = stripped.rpartition(" ")
    if not series:
        return line
    name, pairs = _parse_series(series)
    present = {pair_name for pair_name, _ in pairs}
    merged = pairs + [
        (str(k), str(v)) for k, v in labels.items() if str(k) not in present
    ]
    merged.sort()
    return f"{name}{_label_suffix(tuple(merged))} {value}"


def merge_prometheus_texts(
    parts: Iterable[Tuple[Mapping[str, str], str]],
) -> str:
    """Merge several exposition dumps into one, tagging each part.

    ``parts`` is ``(extra_labels, text)`` per source (the shard
    supervisor passes one part per worker plus its own registry, each
    tagged ``worker="N"`` / ``worker="router"``). Samples of the same
    metric from every part are grouped under a single ``# HELP`` /
    ``# TYPE`` header (first part's wording wins), so the aggregate is
    valid exposition text a Prometheus scraper accepts as-is.

    Identical series landing from *different* parts merge instead of
    colliding — the respawn case: a worker dies mid-scrape and its
    replacement reuses the slot, so two parts both carry
    ``worker="N"``. Counter and histogram samples sum (both processes
    really did that work); gauge and untyped samples take the last
    value seen (a gauge is a statement of current state, and the later
    part is the survivor).
    """
    metrics: "OrderedDict[str, Dict[str, object]]" = OrderedDict()

    def _entry(name: str) -> Dict[str, object]:
        entry = metrics.get(name)
        if entry is None:
            entry = {"help": None, "type": None, "samples": []}
            metrics[name] = entry
        return entry

    for labels, text in parts:
        wanted = {str(k): str(v) for k, v in labels.items()}
        current: Optional[str] = None
        for line in text.splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("# HELP ") or stripped.startswith(
                "# TYPE "
            ):
                kind = stripped[2:6]
                rest = stripped[7:]
                name, _, detail = rest.partition(" ")
                current = name
                entry = _entry(name)
                field = "help" if kind == "HELP" else "type"
                if entry[field] is None:
                    entry[field] = detail
                continue
            if stripped.startswith("#"):
                continue
            series, _, _value = stripped.rpartition(" ")
            name, _pairs = _parse_series(series)
            owner = current
            if owner is None or not name.startswith(owner):
                owner = name
            entry = _entry(owner)
            entry["samples"].append(  # type: ignore[union-attr]
                relabel_prometheus_line(stripped, wanted)
            )

    lines: List[str] = []
    for name, entry in metrics.items():
        if entry["help"] is not None:
            lines.append(f"# HELP {name} {entry['help']}")
        if entry["type"] is not None:
            lines.append(f"# TYPE {name} {entry['type']}")
        lines.extend(
            _merge_duplicate_samples(
                entry["samples"], str(entry["type"] or "untyped")
            )
        )
    return "\n".join(lines) + "\n"


def _merge_duplicate_samples(samples: List[str], kind: str) -> List[str]:
    """Collapse repeated series within one family (first-seen order)."""
    summing = kind in ("counter", "histogram")
    merged: "OrderedDict[str, Optional[float]]" = OrderedDict()
    for line in samples:
        series, _, value = line.rpartition(" ")
        try:
            numeric = float(value)
        except ValueError:
            merged[line] = None  # unparseable: pass through verbatim
            continue
        if series in merged and merged[series] is not None:
            previous = merged[series]
            merged[series] = previous + numeric if summing else numeric
        else:
            merged[series] = numeric
    return [
        series if value is None else f"{series} {_format_value(value)}"
        for series, value in merged.items()
    ]


def iter_prometheus_samples(text: str) -> Iterable[Tuple[str, float]]:
    """Parse ``(series, value)`` pairs back out of exposition text.

    Round-trip helper for tests and ``ttm-cas obs``; comment and blank
    lines are skipped.
    """
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        yield series, float(value)


def iter_json_samples(data: Mapping[str, Any]) -> Iterable[Tuple[str, float]]:
    """``(series, value)`` pairs of a :meth:`MetricsRegistry.to_jsonable`
    export, spelled and ordered as its Prometheus text spells them."""
    for entry in data["metrics"]:
        name = entry["name"]
        for series in entry["series"]:
            key = tuple(series["labels"].items())
            if entry["kind"] != "histogram":
                yield f"{name}{_label_suffix(key)}", float(series["value"])
                continue
            bounds = [repr(float(bound)) for bound in entry["buckets"]]
            counts = [*series["counts"], series["value"]]
            for bound, count in zip([*bounds, "+Inf"], counts):
                le_key = key + (("le", bound),)
                yield f"{name}_bucket{_label_suffix(le_key)}", float(count)
            yield f"{name}_sum{_label_suffix(key)}", float(series["sum"])
            yield f"{name}_count{_label_suffix(key)}", float(series["value"])


def histogram_quantiles_from_json(
    data: Mapping[str, Any],
) -> List[Tuple[str, Dict[str, float]]]:
    """The ``quantiles`` a JSON export carries per histogram series, in
    :func:`histogram_quantiles_from_text`'s order."""
    rows = [
        ((entry["name"], tuple(series["labels"].items())), series["quantiles"])
        for entry in data["metrics"]
        if entry["kind"] == "histogram"
        for series in entry["series"]
    ]
    return [
        (f"{name}{_label_suffix(key)}", quantiles)
        for (name, key), quantiles in sorted(rows)
    ]


def histogram_quantiles_from_text(
    text: str, qs: Sequence[float] = EXPORT_QUANTILES
) -> List[Tuple[str, Dict[str, float]]]:
    """Estimate quantiles for every histogram series in exposition text.

    Pairs ``_bucket{le=...}`` samples with their ``_count`` totals per
    base series (``le`` stripped, other labels kept) and interpolates —
    the ``ttm-cas obs`` summarizer uses this so a raw ``.prom`` dump
    reads as p50/p95/p99 instead of bucket math homework.
    """
    buckets: Dict[Tuple[str, LabelKey], List[Tuple[float, float]]] = {}
    totals: Dict[Tuple[str, LabelKey], float] = {}
    for series, value in iter_prometheus_samples(text):
        name, pairs = _parse_series(series)
        if name.endswith("_bucket"):
            bound_text = dict(pairs).get("le")
            if bound_text is None:
                continue
            rest = tuple(sorted(p for p in pairs if p[0] != "le"))
            try:
                bound = (
                    float("inf") if bound_text == "+Inf"
                    else float(bound_text)
                )
            except ValueError:
                continue
            buckets.setdefault((name[: -len("_bucket")], rest), []).append(
                (bound, value)
            )
        elif name.endswith("_count"):
            totals[(name[: -len("_count")], tuple(sorted(pairs)))] = value
    out: List[Tuple[str, Dict[str, float]]] = []
    for (base, rest), entries in sorted(buckets.items()):
        total = totals.get((base, rest), 0.0)
        finite = sorted(
            (bound, cum) for bound, cum in entries if bound != float("inf")
        )
        if total <= 0 or not finite:
            continue
        bounds = [bound for bound, _ in finite]
        counts = [cum for _, cum in finite]
        out.append(
            (
                f"{base}{_label_suffix(rest)}",
                _quantile_entry(bounds, counts, total, qs),
            )
        )
    return out


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EXPORT_QUANTILES",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "estimate_quantile",
    "get_registry",
    "histogram_quantiles_from_json",
    "histogram_quantiles_from_text",
    "iter_json_samples",
    "iter_prometheus_samples",
    "merge_prometheus_texts",
    "metrics_delta",
    "relabel_prometheus_line",
]
