"""Unified observability: traces, metrics, Prometheus exposition.

Three stdlib-only layers shared by the campaign runner, the sizing
service and the solver phases:

* :mod:`repro.obs.trace` — trace ids + span trees.  ``span("name")``
  context managers measure monotonic durations and emit JSON records
  to an append-only ``trace.jsonl``; a trace context propagates across
  HTTP (the ``X-Repro-Trace`` header), work-queue rows and process
  pools, so one request's spans form a single tree no matter how many
  replicas and worker processes touched it.
* :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges and fixed-bucket histograms (every mutation takes the
  family's lock), with Prometheus text exposition for
  ``GET /v1/metrics``.
* :mod:`repro.obs.waterfall` — loads ``trace.jsonl`` files back into
  span trees and renders the per-job waterfall / critical-span report
  behind ``python -m repro trace``.

Trace and metric data are *volatile telemetry*: they never enter cache
keys or stored payloads (see
:data:`repro.sizing.serialize.VOLATILE_PAYLOAD_KEYS`), so instrumented
and uninstrumented runs cache byte-identical results.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    observe_spans,
)
from repro.obs.trace import (
    TRACE_HEADER,
    SpanSink,
    TraceContext,
    current_carrier,
    current_trace,
    format_trace_header,
    new_span_id,
    new_trace_id,
    parse_trace_header,
    span,
    trace_scope,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanSink",
    "TRACE_HEADER",
    "TraceContext",
    "current_carrier",
    "current_trace",
    "format_trace_header",
    "get_registry",
    "new_span_id",
    "new_trace_id",
    "observe_spans",
    "parse_trace_header",
    "span",
    "trace_scope",
]
