"""Observability: tracing spans, metrics, Prometheus exposition, run reports.

Stdlib-only and strictly out-of-band: nothing in this package feeds
scheduling decisions, scenario identities, or cache keys.  The four
modules layer as

* :mod:`repro.obs.trace` — nestable spans with cross-process context
  propagation (zero-cost when disabled);
* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and fixed-bucket histograms;
* :mod:`repro.obs.prom` — Prometheus text exposition (0.0.4) rendering
  and a strict parser used by tests and the CI scrape gate;
* :mod:`repro.obs.report` — structured per-sweep run reports
  (record → aggregate → render) behind ``--report-out`` and the
  ``repro-vliw report`` verb.
"""

from .metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .prom import CONTENT_TYPE, PromParseError, parse, render
from .report import (
    PointRecord,
    RunRecorder,
    RunReport,
    aggregate,
    render_report,
)
from .trace import TRACER, Span, TraceContext, Tracer, new_trace_id

__all__ = [
    "CONTENT_TYPE",
    "LATENCY_BUCKETS_S",
    "TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PointRecord",
    "PromParseError",
    "RunRecorder",
    "RunReport",
    "Span",
    "TraceContext",
    "Tracer",
    "aggregate",
    "new_trace_id",
    "parse",
    "render",
    "render_report",
]
