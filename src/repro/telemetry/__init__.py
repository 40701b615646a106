"""``repro.telemetry`` — metrics, spans and structured logs, end to end.

Infrastructure role: the cross-cutting observability subsystem.  The
production story ("heavy traffic, as fast as the hardware allows") is
only steerable with numbers, so every layer of the pipeline — flow
stages, both fault-sim engines, the sharded multi-core backend, the
artifact cache, the flow server — records into one dependency-free,
thread-safe registry, exposed three ways:

* ``GET /metrics`` on the flow server — Prometheus text exposition
  (hand-rolled, stdlib only), the one surface every counter is read
  from (the JSON ``GET /stats`` carries server state, no counters);
* ``repro run --trace`` — a per-stage/per-span tree with durations,
  persisted as ``results/trace_<fingerprint>.json``;
* ``REPRO_LOG_FORMAT=json`` — structured one-line-per-event logs,
  including a server access log with latency, status, source and key.

The pieces (see each module's docstring):

* :mod:`repro.telemetry.registry` — :class:`MetricsRegistry` with
  counters, gauges, fixed-log-bucket histograms; snapshot/merge (the
  shard-worker aggregation protocol); Prometheus rendering;
* :mod:`repro.telemetry.spans` — the ``with span(...)`` API, nesting,
  trace collection, the ``REPRO_TELEMETRY=off`` no-op fast path;
* :mod:`repro.telemetry.logs` — :func:`log_event`, human or JSON lines.

Everything below re-exports here; instrumented modules import only
``repro.telemetry``.
"""

from repro.telemetry.logs import (
    LOG_FORMAT_ENV_VAR,
    format_event,
    log_event,
    log_format,
    set_sink,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    TelemetryError,
    render_prometheus,
)
from repro.telemetry.spans import (
    SPAN_METRIC,
    TELEMETRY_ENV_VAR,
    Span,
    TraceCollector,
    enabled,
    get_registry,
    scoped_registry,
    set_enabled,
    span,
    tracing,
)

__all__ = [
    "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricFamily",
    "MetricsRegistry", "TelemetryError", "render_prometheus",
    "SPAN_METRIC", "TELEMETRY_ENV_VAR", "Span", "TraceCollector",
    "enabled", "get_registry", "scoped_registry", "set_enabled", "span",
    "tracing",
    "LOG_FORMAT_ENV_VAR", "format_event", "log_event", "log_format",
    "set_sink",
]
