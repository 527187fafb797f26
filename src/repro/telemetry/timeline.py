"""Chrome-trace / Perfetto export for JSON-lines trace streams.

``python -m repro.telemetry timeline trace.jsonl -o trace.json``
converts a recorded trace (schema 2: every span carries ``pid`` and a
shared-monotonic ``ts``) into the Chrome Trace Event JSON format that
``chrome://tracing`` and https://ui.perfetto.dev load directly.

Each process becomes a lane (``pid``/``tid``), so a ``--jobs N`` run
renders as the parent's span tree with worker replay lanes beside it;
``log`` events (cache warnings, corrupt store rows) become instant
events pinned at their timestamps, and span fields (backend, cache
tier) ride along in ``args`` where the UI shows them on click.

Linux's ``CLOCK_MONOTONIC`` is system-wide, so ``time.monotonic()``
start times recorded in forked workers are directly comparable with the
parent's -- the export just rebases everything to the earliest event.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.telemetry.schema import EVENT_SCHEMA, validate_event

__all__ = ["load_trace", "chrome_trace", "write_chrome_trace"]


def load_trace(path: str) -> Tuple[List[dict], dict]:
    """Load a JSON-lines trace; returns ``(events, summary)``.

    The first line must be a current-schema ``meta`` event (older
    traces lack the cross-process fields the timeline needs).  Invalid
    or pre-schema-2 span/log lines are skipped and counted in the
    summary rather than aborting the export.
    """
    events: List[dict] = []
    summary = {"meta_pid": None, "skipped": 0, "lines": 0}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            summary["lines"] += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                summary["skipped"] += 1
                continue
            if lineno == 1:
                if obj.get("event") != "meta":
                    raise ValueError(f"{path}: first event must be 'meta'")
                if obj.get("schema") != EVENT_SCHEMA:
                    raise ValueError(
                        f"{path}: trace schema {obj.get('schema')!r} is not "
                        f"{EVENT_SCHEMA}; re-record with the current version"
                    )
                summary["meta_pid"] = obj.get("pid")
                continue
            if obj.get("event") == "meta":
                continue
            if validate_event(obj):
                summary["skipped"] += 1
                continue
            events.append(obj)
    return events, summary


def chrome_trace(events: List[dict], meta_pid: Optional[int] = None) -> dict:
    """Render loaded events as a Chrome Trace Event JSON object."""
    trace_events: List[dict] = []
    pids: Dict[int, int] = {}
    t0 = min((e["ts"] for e in events), default=0.0)
    for event in events:
        pid = event["pid"]
        pids[pid] = pids.get(pid, 0) + 1
        if event["event"] == "span":
            args = dict(event.get("fields", {}))
            args["span_id"] = event["span_id"]
            args["parent_id"] = event["parent_id"]
            args["ok"] = event["ok"]
            trace_events.append(
                {
                    "name": event["name"],
                    "cat": "span",
                    "ph": "X",
                    "ts": (event["ts"] - t0) * 1e6,
                    "dur": event["duration_s"] * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": args,
                }
            )
        else:  # log -> instant marker
            trace_events.append(
                {
                    "name": event["name"],
                    "cat": "log",
                    "ph": "i",
                    "s": "p",
                    "ts": (event["ts"] - t0) * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": {
                        "level": event.get("level"),
                        "message": event.get("message", ""),
                        **event.get("fields", {}),
                    },
                }
            )
    for pid in sorted(pids):
        label = (
            "repro parent"
            if meta_pid is not None and pid == meta_pid
            else f"repro worker {pid}"
        )
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": label},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace_path: str, out_path: str) -> dict:
    """Convert ``trace_path`` (JSONL) to ``out_path`` (Chrome JSON).

    Returns a summary: event/pid counts, skipped lines, and whether any
    span-id collision was detected across processes (there should never
    be one with pid-namespaced allocation).
    """
    events, summary = load_trace(trace_path)
    doc = chrome_trace(events, meta_pid=summary["meta_pid"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    span_ids = [e["span_id"] for e in events if e["event"] == "span"]
    return {
        "events": len(events),
        "spans": len(span_ids),
        "pids": sorted({e["pid"] for e in events}),
        "skipped": summary["skipped"],
        "span_id_collisions": len(span_ids) - len(set(span_ids)),
        "out": out_path,
    }
