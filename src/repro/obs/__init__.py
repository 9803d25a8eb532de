"""``repro.obs`` — the unified observability subsystem.

Three pieces, all stdlib-only and all inert with respect to results:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments,
  labeled by ``(component, stage)``, that the engine, guard, runner,
  service and store all record into;
* :mod:`repro.obs.tracing` — hierarchical pipeline spans
  (``with trace.span("generation", side="left")``) with a ring-buffer
  recorder behind the ``--trace`` CLI flag;
* :mod:`repro.obs.export` — Prometheus text and JSON exporters over a
  registry (``GET /metrics``, ``metrics.json``).
"""

from repro.obs.export import (
    METRICS_FORMAT_VERSION,
    save_json,
    to_json,
    to_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.progress import ProgressTracker
from repro.obs.tracing import (
    DEFAULT_RING_SIZE,
    TRACE_FORMAT_VERSION,
    Span,
    Tracer,
    span,
    trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_RING_SIZE",
    "Gauge",
    "Histogram",
    "METRICS_FORMAT_VERSION",
    "MetricsRegistry",
    "ProgressTracker",
    "Span",
    "TRACE_FORMAT_VERSION",
    "Tracer",
    "save_json",
    "span",
    "to_json",
    "to_prometheus",
    "trace",
]
