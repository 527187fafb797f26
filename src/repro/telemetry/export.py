"""The metrics document and its Markdown report.

:func:`metrics_doc` is the schema-versioned JSON form of a
:class:`~repro.telemetry.registry.MetricsSnapshot`; ``--telemetry``
writes it through :func:`write_metrics`, and
``python -m repro.telemetry report`` renders a saved one with
:func:`render_markdown`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Optional

from repro.telemetry.registry import (
    MetricsSnapshot,
    get_registry,
    histogram_quantile,
    parse_key,
)
from repro.telemetry.schema import METRICS_KIND, METRICS_SCHEMA

__all__ = [
    "metrics_doc",
    "write_metrics",
    "render_markdown",
]


def metrics_doc(snapshot: Optional[MetricsSnapshot] = None) -> dict:
    """The schema-versioned metrics document for a snapshot.

    With no argument, snapshots the process-wide registry.
    """
    snap = snapshot if snapshot is not None else get_registry().snapshot()
    return {
        "schema": METRICS_SCHEMA,
        "kind": METRICS_KIND,
        "counters": dict(sorted(snap.counters.items())),
        "histograms": dict(sorted(snap.histograms.items())),
    }


def write_metrics(path: str, snapshot: Optional[MetricsSnapshot] = None) -> str:
    """Write the metrics document as JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics_doc(snapshot), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _grouped(entries: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Group ``name{labels}`` keys by base metric name."""
    groups: Dict[str, Dict[str, object]] = defaultdict(dict)
    for key, value in sorted(entries.items()):
        name, labels = parse_key(key)
        label_text = (
            ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"
        )
        groups[name][label_text] = value
    return groups


def render_markdown(doc: dict) -> str:
    """Human-readable Markdown report of a metrics document."""
    from repro.analysis.report import markdown_table

    lines: List[str] = ["# Telemetry report", ""]

    counters = doc.get("counters", {})
    if counters:
        lines += ["## Counters", ""]
        rows = []
        for name, series in _grouped(counters).items():
            for label_text, value in series.items():
                rows.append({"metric": name, "labels": label_text, "value": value})
        lines += [markdown_table(rows, columns=["metric", "labels", "value"]), ""]

    fallbacks = {
        key: value
        for key, value in counters.items()
        if parse_key(key)[0] == "fastpath_fallbacks_total"
    }
    if fallbacks:
        lines += [
            "## Fast-path fallbacks by reason",
            "",
            markdown_table(
                [
                    {
                        "reason": parse_key(key)[1].get("reason", "?"),
                        "count": value,
                    }
                    for key, value in sorted(fallbacks.items())
                ],
                columns=["reason", "count"],
            ),
            "",
        ]

    histograms = doc.get("histograms", {})
    if histograms:
        lines += ["## Histograms", ""]
        rows = []
        for key, hist in sorted(histograms.items()):
            name, labels = parse_key(key)
            mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
            rows.append(
                {
                    "metric": name,
                    "labels": ", ".join(
                        f"{k}={v}" for k, v in sorted(labels.items())
                    )
                    or "-",
                    "count": hist["count"],
                    "sum": round(hist["sum"], 4),
                    "mean": round(mean, 4),
                    "p50": round(histogram_quantile(hist, 0.50), 4),
                    "p95": round(histogram_quantile(hist, 0.95), 4),
                    "max": round(hist.get("max", 0.0), 4),
                }
            )
        lines += [
            markdown_table(
                rows,
                columns=[
                    "metric", "labels", "count", "sum", "mean",
                    "p50", "p95", "max",
                ],
            ),
            "",
        ]

    if len(lines) == 2:
        lines += ["*(no metrics collected)*", ""]
    return "\n".join(lines)
