"""The stable telemetry schemas plus zero-dependency validators.

Two documents leave the telemetry layer:

**Metrics document** (``--telemetry[=PATH]``, JSON)::

    {
      "schema": 3,
      "kind": "repro-telemetry-metrics",
      "counters":   {"name{label=value,...}": int, ...},
      "histograms": {"name{...}": {"buckets": [number...],
                                   "counts": [int...],   # len(buckets)+1
                                   "sum": number,
                                   "count": int,
                                   "max": number}, ...}
    }

**Trace stream** (``--trace-out PATH``, JSON lines).  Line one is a
``meta`` event; every other line is a ``span`` or ``log`` event::

    {"event": "meta", "schema": 2, "pid": int}
    {"event": "span", "name": str, "span_id": int,
     "parent_id": int|null, "pid": int, "ts": number,
     "duration_s": number, "ok": bool, "fields": {...}?}
    {"event": "log", "name": str, "level": str, "message": str,
     "parent_id": int|null, "pid": int, "ts": number, "fields": {...}}

Schema 2 made traces cross-process mergeable: every event carries the
emitting ``pid``, spans carry a shared-monotonic start ``ts``, span ids
are pid-namespaced (collision-free across workers), and histograms
track a running ``max``.  Metrics schema 3 holds counters and
histograms only.

Both schemas are versioned; bump the constants when a field changes
meaning so files from different versions are never silently read as
one another.  Validation is hand-rolled (no jsonschema dependency) and
returns human-readable error strings.
"""

from __future__ import annotations

import json
from typing import List

__all__ = [
    "METRICS_SCHEMA",
    "EVENT_SCHEMA",
    "METRICS_KIND",
    "validate_metrics_doc",
    "validate_event",
    "validate_trace_file",
]

METRICS_SCHEMA = 3
EVENT_SCHEMA = 2
METRICS_KIND = "repro-telemetry-metrics"

_EVENT_KINDS = ("meta", "span", "log")


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_metrics_doc(doc) -> List[str]:
    """Validate a metrics document; returns a list of problems."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"metrics document must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != METRICS_SCHEMA:
        errors.append(
            f"schema must be {METRICS_SCHEMA}, got {doc.get('schema')!r}"
        )
    if doc.get("kind") != METRICS_KIND:
        errors.append(f"kind must be {METRICS_KIND!r}, got {doc.get('kind')!r}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        errors.append("counters must be an object")
    else:
        for key, value in counters.items():
            if not _is_int(value):
                errors.append(f"counter {key!r} must be an integer, got {value!r}")
    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        errors.append("histograms must be an object")
    else:
        for key, hist in histograms.items():
            errors.extend(_validate_histogram(key, hist))
    return errors


def _validate_histogram(key: str, hist) -> List[str]:
    errors: List[str] = []
    if not isinstance(hist, dict):
        return [f"histogram {key!r} must be an object"]
    buckets = hist.get("buckets")
    counts = hist.get("counts")
    if not (isinstance(buckets, list) and all(_is_num(b) for b in buckets)):
        errors.append(f"histogram {key!r}: buckets must be a number list")
    elif buckets != sorted(set(buckets)):
        errors.append(f"histogram {key!r}: buckets must be strictly increasing")
    if not (isinstance(counts, list) and all(_is_int(c) for c in counts)):
        errors.append(f"histogram {key!r}: counts must be an integer list")
    elif isinstance(buckets, list) and len(counts) != len(buckets) + 1:
        errors.append(
            f"histogram {key!r}: counts must have len(buckets)+1 entries "
            f"(got {len(counts)} for {len(buckets)} buckets)"
        )
    elif not _is_int(hist.get("count")):
        errors.append(f"histogram {key!r}: count must be an integer")
    elif sum(counts) != hist["count"]:
        errors.append(
            f"histogram {key!r}: bucket counts sum to {sum(counts)} "
            f"but count is {hist['count']}"
        )
    if not _is_num(hist.get("sum")):
        errors.append(f"histogram {key!r}: sum must be a number")
    if not _is_num(hist.get("max")):
        errors.append(f"histogram {key!r}: max must be a number")
    return errors


def validate_event(obj) -> List[str]:
    """Validate one trace-stream event object."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return [f"event must be an object, got {type(obj).__name__}"]
    kind = obj.get("event")
    if kind not in _EVENT_KINDS:
        return [f"event must be one of {_EVENT_KINDS}, got {kind!r}"]
    if kind == "meta":
        if obj.get("schema") != EVENT_SCHEMA:
            errors.append(
                f"meta schema must be {EVENT_SCHEMA}, got {obj.get('schema')!r}"
            )
        if not _is_int(obj.get("pid")):
            errors.append("meta event: pid must be an integer")
        return errors
    if not isinstance(obj.get("name"), str):
        errors.append(f"{kind} event: name must be a string")
    parent = obj.get("parent_id")
    if parent is not None and not _is_int(parent):
        errors.append(f"{kind} event: parent_id must be an integer or null")
    if not _is_int(obj.get("pid")):
        errors.append(f"{kind} event: pid must be an integer")
    if not _is_num(obj.get("ts")):
        errors.append(f"{kind} event: ts must be a number")
    if kind == "span":
        if not _is_int(obj.get("span_id")):
            errors.append("span event: span_id must be an integer")
        if not _is_num(obj.get("duration_s")):
            errors.append("span event: duration_s must be a number")
        if not isinstance(obj.get("ok"), bool):
            errors.append("span event: ok must be a boolean")
        if "fields" in obj and not isinstance(obj["fields"], dict):
            errors.append("span event: fields must be an object")
    else:  # log
        if not isinstance(obj.get("level"), str):
            errors.append("log event: level must be a string")
        if not isinstance(obj.get("fields"), dict):
            errors.append("log event: fields must be an object")
    return errors


def validate_trace_file(path: str) -> List[str]:
    """Validate a JSON-lines trace file; returns a list of problems."""
    errors: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: not valid JSON ({exc})")
                continue
            if lineno == 1 and obj.get("event") != "meta":
                errors.append("line 1: first event must be 'meta'")
            errors.extend(
                f"line {lineno}: {problem}" for problem in validate_event(obj)
            )
    return errors
