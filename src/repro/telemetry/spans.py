"""Span-based tracing: structured JSON-lines events with nesting.

``with trace_span("replay", job=fp):`` measures a monotonic duration,
assigns the span an id, links it to the enclosing span (a thread-local
stack provides parent/child nesting) and, when a trace sink is
configured via :func:`set_trace_path`, appends one JSON object per
completed span to the file.  Every span additionally feeds a
``span_seconds{span=<name>}`` histogram in the metrics registry, so
per-phase timings survive even without a trace file.

Cross-process safety (the flight-recorder contract): span ids are
allocated from a pid-seeded counter, re-seeded whenever the process id
changes (a forked worker inherits the parent's counter and would
otherwise collide with it), and every event records the ``pid`` that
emitted it plus a shared-monotonic ``ts`` start time -- so span streams
captured in worker processes merge into one coherent timeline.  Workers
capture their spans into an in-memory buffer
(:func:`begin_span_capture` / :func:`drain_span_capture`) that ships
home with the metrics snapshot; the parent re-emits them with
:func:`replay_captured`, re-parenting worker root spans under its own
open span.

:func:`log_event` emits point-in-time structured events into the same
stream (and mirrors them to stdlib ``logging``), which is how ad-hoc
warnings like cache corruption become countable, diffable records.

The event schema is documented and validated in
:mod:`repro.telemetry.schema`; see ``docs/observability.md``.

Tracing follows the same cost contract as the registry: with no sink
configured, no capture buffer armed and metrics disabled,
``trace_span`` returns a shared no-op context manager after one flag
check.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from typing import List, Optional

from repro.telemetry.registry import SECONDS_BUCKETS, get_registry

__all__ = [
    "trace_span",
    "log_event",
    "set_trace_path",
    "trace_path",
    "close_trace",
    "tracing_active",
    "begin_span_capture",
    "drain_span_capture",
    "replay_captured",
]

_DEFAULT_LOGGER = logging.getLogger("repro.telemetry")

_state = threading.local()
_lock = threading.Lock()
_sink = None  # open file handle for the JSONL trace, or None
_sink_path: Optional[str] = None
_buffer: Optional[list] = None  # in-memory capture (worker processes)
_next_id = 0
_alloc_pid: Optional[int] = None

#: Span-id namespace stride: each process allocates ids from
#: ``(pid & PID_MASK) << ID_BITS``, so two processes collide only after
#: one of them allocates 2**40 spans (never, in practice).
_ID_BITS = 40
_PID_MASK = 0xFFFFFF


def _span_stack():
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    return stack


def _alloc_id() -> int:
    """Next span id, from a pid-seeded namespace.

    Re-seeds whenever ``os.getpid()`` changes: a forked worker inherits
    the parent's counter, and without the re-seed its spans would reuse
    the parent's ids -- the latent collision that used to corrupt
    merged cross-process traces.
    """
    global _next_id, _alloc_pid
    with _lock:
        pid = os.getpid()
        if pid != _alloc_pid:
            _alloc_pid = pid
            _next_id = (pid & _PID_MASK) << _ID_BITS
        _next_id += 1
        return _next_id


def _emit(obj: dict) -> None:
    buffer = _buffer
    if buffer is not None:
        buffer.append(obj)
        return
    sink = _sink
    if sink is None:
        return
    line = json.dumps(obj, sort_keys=True, default=str)
    with _lock:
        sink.write(line + "\n")
        sink.flush()


def set_trace_path(path: Optional[str]) -> None:
    """Open (or close, with ``None``) the JSON-lines trace sink.

    The file is truncated and seeded with a ``meta`` event recording the
    event-schema version, so consumers can validate before parsing.
    """
    global _sink, _sink_path
    close_trace()
    if path is None:
        return
    from repro.telemetry.schema import EVENT_SCHEMA

    _sink = open(path, "w", encoding="utf-8")
    _sink_path = path
    _emit({"event": "meta", "schema": EVENT_SCHEMA, "pid": os.getpid()})


def trace_path() -> Optional[str]:
    """The configured trace sink path, if any."""
    return _sink_path


def close_trace() -> None:
    """Flush and close the trace sink (no-op when none is open)."""
    global _sink, _sink_path
    if _sink is not None:
        with _lock:
            _sink.close()
        _sink = None
        _sink_path = None


def tracing_active() -> bool:
    """True when span events have somewhere to go (sink or buffer)."""
    return _sink is not None or _buffer is not None


def begin_span_capture() -> None:
    """Arm the in-memory capture buffer (the worker-process mode).

    While armed, completed spans and log events append to the buffer
    instead of any file sink, and the thread-local span stack is
    cleared so captured root spans carry ``parent_id: null`` -- the
    hook :func:`replay_captured` uses to re-parent them in the parent
    process.  Call :func:`drain_span_capture` to collect.
    """
    global _buffer
    _buffer = []
    _state.stack = []


def drain_span_capture() -> List[dict]:
    """Return the captured events and disarm the buffer."""
    global _buffer
    events, _buffer = _buffer if _buffer is not None else [], None
    return events


def replay_captured(events, parent_id: Optional[int] = None) -> None:
    """Re-emit captured worker events into this process's trace stream.

    Root events (``parent_id: null``) are re-parented under
    ``parent_id`` -- or, by default, this process's innermost open span
    -- so a worker's span tree hangs off the parent span that dispatched
    the work.  Non-root linkage inside the captured batch is preserved
    untouched (worker span ids are pid-namespaced, so they cannot
    collide with the parent's).
    """
    if not events or not tracing_active():
        return
    if parent_id is None:
        stack = _span_stack()
        parent_id = stack[-1] if stack else None
    for event in events:
        if event.get("event") in ("span", "log") and event.get("parent_id") is None:
            event = dict(event)
            event["parent_id"] = parent_id
        _emit(event)


class _NoopSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def note(self, **fields) -> None:
        """No-op counterpart of :meth:`_Span.note`."""


_NOOP_SPAN = _NoopSpan()


class _Span:
    __slots__ = ("name", "fields", "span_id", "parent_id", "_start")

    def __init__(self, name: str, fields: dict):
        self.name = name
        self.fields = fields
        self.span_id = _alloc_id()
        stack = _span_stack()
        self.parent_id = stack[-1] if stack else None
        self._start = 0.0

    def note(self, **fields) -> None:
        """Attach fields discovered mid-span (e.g. the cache tier hit)."""
        self.fields = {**self.fields, **fields}

    def __enter__(self):
        _span_stack().append(self.span_id)
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.monotonic() - self._start
        stack = _span_stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        registry = get_registry()
        if registry.enabled:
            registry.histogram(
                "span_seconds", buckets=SECONDS_BUCKETS, span=self.name
            ).observe(duration)
        event = {
            "event": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "ts": self._start,
            "duration_s": duration,
            "ok": exc_type is None,
        }
        if self.fields:
            event["fields"] = self.fields
        _emit(event)
        return False


def trace_span(name: str, **fields) -> object:
    """Context manager timing one phase; nests via a thread-local stack.

    Cheap when telemetry is fully off: one flag check, then a shared
    no-op context.  With metrics on it always feeds ``span_seconds``;
    with a trace sink (or an armed capture buffer) it also appends a
    ``span`` event line.
    """
    if _sink is None and _buffer is None and not get_registry().enabled:
        return _NOOP_SPAN
    return _Span(name, fields)


def log_event(
    name: str,
    level: int = logging.WARNING,
    message: str = "",
    logger: Optional[logging.Logger] = None,
    **fields,
) -> None:
    """Emit one structured point event (plus a stdlib log record).

    The stdlib mirror always fires -- through ``logger`` when given, so
    existing per-module log capture keeps working -- and the structured
    copy lands in the trace stream when a sink (or capture buffer) is
    active, making the event countable and machine-diffable rather than
    grep-able only.
    """
    (logger if logger is not None else _DEFAULT_LOGGER).log(
        level, "%s: %s %s", name, message, fields if fields else ""
    )
    if _sink is not None or _buffer is not None:
        stack = _span_stack()
        _emit(
            {
                "event": "log",
                "name": name,
                "level": logging.getLevelName(level),
                "message": message,
                "parent_id": stack[-1] if stack else None,
                "pid": os.getpid(),
                "ts": time.monotonic(),
                "fields": fields,
            }
        )
