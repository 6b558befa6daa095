"""Observability: tracing, metrics, and run manifests (zero-dependency).

The engine stack (batch/split/portfolio kernels, the invariant LRU,
``parallel_map``, the Monte Carlo studies) is the hot path for every
figure and study; this package makes it inspectable without slowing it
down:

* :mod:`repro.obs.trace` — a :class:`Tracer` of nested spans (wall/CPU
  time, attributes, correct parents across ``parallel_map`` thread and
  process workers), exportable as JSON and as a Chrome-trace file that
  ``chrome://tracing`` / Perfetto load directly. No-op until
  :func:`install_tracer` is called.
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters/gauges/histograms (invariant-cache hits/misses/evictions,
  kernel invocations and element throughput, executor fallbacks,
  non-finite guard trips) with Prometheus-text and JSON exporters.
* :mod:`repro.obs.manifest` — :class:`RunManifest`: per-run provenance
  (git SHA, config, seeds, factor specs, duration, metrics delta,
  result digest) written alongside outputs; identically-seeded runs
  reproduce the digest bit-for-bit.
* :mod:`repro.obs.instrument` — the hooks the engine layers call;
  compiled down to a module-global check when uninstrumented (the
  ``bench_engine.py --check`` guard pins the overhead at <= 2%).
* :mod:`repro.obs.session` — :class:`ObsSession`, the CLI glue behind
  ``--trace`` / ``--metrics`` / ``--manifest-dir`` and ``ttm-cas obs``.
* :mod:`repro.obs.distributed` — the ``traceparent``-style
  :class:`TraceContext` propagated over the serve stack's
  router→worker hop, plus :func:`stitch_trace`, which reassembles one
  request's spans across router, worker, batch, and engine kernels.
* :mod:`repro.obs.log` — :class:`RequestLogger`, the JSON-lines
  structured request log (``ttm-cas obs tail``).
* :mod:`repro.obs.slo` — declarative latency/error objectives with
  sliding-window burn rates (``/debug/obs``, ``ttm-cas obs slo``).
* :mod:`repro.obs.profile` — :class:`SamplingProfiler`, the stdlib
  thread-sampling wall-time profiler behind ``serve --profile-hz``.

Each name is imported from its submodule when it is first read
(:mod:`repro._lazy`), so a process that needs ``trace`` or
``instrument`` loads neither ``manifest`` nor ``session`` nor
``profile``.

Quickstart::

    from repro.obs import install_tracer, uninstall_tracer, get_registry

    tracer = install_tracer()
    ...  # run sweeps / studies
    uninstall_tracer()
    tracer.write_chrome_trace("trace.json")   # load in chrome://tracing
    print(get_registry().to_prometheus_text())
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".distributed": (
            "TraceContext",
            "mint_request_id",
            "mint_trace_context",
            "parse_traceparent",
            "stitch_trace",
        ),
        ".instrument": ("disabled", "observed_kernel"),
        ".log": ("LOG_SCHEMA", "RequestLogger", "read_request_log"),
        ".manifest": (
            "MANIFEST_SCHEMA",
            "RunManifest",
            "TIMING_FIELDS",
            "environment_fingerprint",
            "git_revision",
            "result_digest",
        ),
        ".metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "METRICS_SCHEMA",
            "MetricsRegistry",
            "estimate_quantile",
            "get_registry",
            "histogram_quantiles_from_text",
            "metrics_delta",
        ),
        ".profile": ("SamplingProfiler",),
        ".session": ("ManifestSink", "ObsSession"),
        ".slo": ("DEFAULT_OBJECTIVES", "SLObjective", "SLOTracker"),
        ".trace": (
            "SpanRecord",
            "TRACE_SCHEMA",
            "Tracer",
            "chrome_trace_from_spans",
            "current_tracer",
            "install_tracer",
            "span",
            "uninstall_tracer",
        ),
    },
)

__all__ = [
    "Counter",
    "DEFAULT_OBJECTIVES",
    "Gauge",
    "Histogram",
    "LOG_SCHEMA",
    "MANIFEST_SCHEMA",
    "METRICS_SCHEMA",
    "ManifestSink",
    "MetricsRegistry",
    "ObsSession",
    "RequestLogger",
    "RunManifest",
    "SLOTracker",
    "SLObjective",
    "SamplingProfiler",
    "SpanRecord",
    "TIMING_FIELDS",
    "TRACE_SCHEMA",
    "TraceContext",
    "Tracer",
    "chrome_trace_from_spans",
    "current_tracer",
    "disabled",
    "environment_fingerprint",
    "estimate_quantile",
    "get_registry",
    "git_revision",
    "histogram_quantiles_from_text",
    "install_tracer",
    "metrics_delta",
    "mint_request_id",
    "mint_trace_context",
    "observed_kernel",
    "parse_traceparent",
    "read_request_log",
    "result_digest",
    "span",
    "stitch_trace",
    "uninstall_tracer",
]
