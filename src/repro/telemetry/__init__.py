"""Unified telemetry: metrics registry, span tracing and a report.

Zero-dependency observability for the whole stack -- engine, caches,
fast path, pipeline simulator, verification and trace generation all
report through this package.  See ``docs/observability.md`` for the
metric catalog, the span/event schema and how to read the reports.

Cost contract
-------------
Everything here is **off by default** and cheap while off: an
instrumented call site pays one attribute check
(``get_registry().enabled``), and :func:`trace_span` returns a shared
no-op context manager.  ``benchmarks/test_telemetry_bench.py`` guards
the disabled-path overhead against a cold engine batch.

Determinism contract
--------------------
Telemetry is observational only.  Job fingerprints, canonical metrics
and golden digests are bit-identical whether telemetry is enabled or
not (``tests/test_telemetry.py`` proves it), so it can be left on for
any production run without invalidating results.

Typical use::

    from repro import telemetry

    telemetry.enable()                     # counters and histograms
    telemetry.set_trace_path("trace.jsonl")  # optional span stream
    ...  # run experiments
    telemetry.write_metrics("telemetry.json")

and in instrumented code::

    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("engine_replays_total", backend=outcome.backend).inc()
    with telemetry.trace_span("replay", job=fp[:12]):
        ...
"""

from __future__ import annotations

from repro.telemetry.export import (
    metrics_doc,
    render_markdown,
    write_metrics,
)
from repro.telemetry.registry import (
    COUNT_BUCKETS,
    SECONDS_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    disable,
    enable,
    get_registry,
    histogram_quantile,
    instrument_key,
    parse_key,
    reset,
)
from repro.telemetry.schema import (
    EVENT_SCHEMA,
    METRICS_SCHEMA,
    validate_event,
    validate_metrics_doc,
    validate_trace_file,
)
from repro.telemetry.spans import (
    begin_span_capture,
    close_trace,
    drain_span_capture,
    log_event,
    replay_captured,
    set_trace_path,
    trace_path,
    trace_span,
    tracing_active,
)
from repro.telemetry.timeline import chrome_trace, write_chrome_trace
from repro.telemetry.workers import (
    WorkerShipment,
    absorb_shipment,
    worker_begin,
    worker_collect,
)

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "METRICS_SCHEMA",
    "EVENT_SCHEMA",
    "SECONDS_BUCKETS",
    "COUNT_BUCKETS",
    "instrument_key",
    "parse_key",
    "get_registry",
    "enable",
    "disable",
    "reset",
    "histogram_quantile",
    "trace_span",
    "log_event",
    "set_trace_path",
    "trace_path",
    "close_trace",
    "tracing_active",
    "begin_span_capture",
    "drain_span_capture",
    "replay_captured",
    "WorkerShipment",
    "worker_begin",
    "worker_collect",
    "absorb_shipment",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_doc",
    "write_metrics",
    "render_markdown",
    "validate_event",
    "validate_metrics_doc",
    "validate_trace_file",
]
