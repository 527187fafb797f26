"""Telemetry diffing: explain *what* regressed between two runs.

``python -m repro.telemetry diff A B`` compares two recorded telemetry
runs -- store run ids (with ``--store``) or exported JSON files (plain
metrics documents, or combined run documents as emitted by
``repro.sweeps query --run``) -- and ranks the deltas:

* **counters** -- absolute and relative change per key;
* **spans** -- per-span total/mean seconds from the
  ``span_seconds{span=...}`` histograms, ranked by added seconds, the
  primary where-did-the-time-go signal;
* **hotspots** -- per-function cumulative-seconds deltas when both runs
  carry profile documents (``--profile`` runs).

:func:`TelemetryDiff.rank` merges span and hotspot deltas into one
suspect list, so a slower run names the phases that slowed down instead
of just a wall-clock ratio.  Stored runs come from ``sweeps run`` with
``--telemetry``, ``--trace-out`` or ``--profile``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.telemetry.registry import parse_key

__all__ = ["RUN_KIND", "TelemetryDiff", "diff_runs", "load_run_document"]

#: Kind tag for a combined run document: {"kind": RUN_KIND,
#: "metrics": <metrics doc>, "profile": <profile doc>|null, "meta": {}}
RUN_KIND = "repro-telemetry-run"


def _span_stats(metrics: dict) -> Dict[str, dict]:
    """``span name -> {sum, count, mean, max}`` from span_seconds hists."""
    out: Dict[str, dict] = {}
    for key, hist in (metrics.get("histograms") or {}).items():
        name, labels = parse_key(key)
        if name != "span_seconds" or "span" not in labels:
            continue
        count = hist.get("count", 0)
        out[labels["span"]] = {
            "sum": hist.get("sum", 0.0),
            "count": count,
            "mean": (hist.get("sum", 0.0) / count) if count else 0.0,
            "max": hist.get("max", 0.0),
        }
    return out


def _hotspot_cums(profile: Optional[dict]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for spot in (profile or {}).get("hotspots", []):
        out[spot["func"]] = {
            "cum_s": spot.get("cum_s", 0.0),
            "self_s": spot.get("self_s", 0.0),
            "calls": spot.get("calls", 0),
        }
    return out


class TelemetryDiff:
    """The computed delta between two telemetry runs (A = base, B = new)."""

    def __init__(
        self,
        counters: List[dict],
        spans: List[dict],
        hotspots: List[dict],
        labels: Tuple[str, str] = ("A", "B"),
    ):
        self.counters = counters
        self.spans = spans
        self.hotspots = hotspots
        self.labels = labels

    def rank(self, top: int = 5) -> List[dict]:
        """Top suspects -- span and hotspot entries that *gained* the
        most seconds, merged and sorted by added wall/cumulative time."""
        suspects = [
            {"kind": "span", "name": s["span"], "delta_s": s["delta_s"]}
            for s in self.spans
            if s["delta_s"] > 0
        ] + [
            {"kind": "hotspot", "name": h["func"], "delta_s": h["delta_s"]}
            for h in self.hotspots
            if h["delta_s"] > 0
        ]
        suspects.sort(key=lambda s: s["delta_s"], reverse=True)
        return suspects[:top]

    def as_dict(self, top: int = 20) -> dict:
        return {
            "kind": "repro-telemetry-diff",
            "labels": list(self.labels),
            "counters": self.counters[:top],
            "spans": self.spans[:top],
            "hotspots": self.hotspots[:top],
            "suspects": self.rank(top=top),
        }

    def render_markdown(self, top: int = 10) -> str:
        a, b = self.labels
        lines = [f"# Telemetry diff: {a} -> {b}", ""]
        if self.spans:
            lines += [
                "## Spans (by added seconds)",
                "",
                "| span | Δ total s | total s "
                f"({a}) | total s ({b}) | Δ mean s | count ({b}) |",
                "|---|---:|---:|---:|---:|---:|",
            ]
            for s in self.spans[:top]:
                lines.append(
                    f"| {s['span']} | {s['delta_s']:+.6f} | {s['a_sum']:.6f} "
                    f"| {s['b_sum']:.6f} | {s['delta_mean']:+.6f} "
                    f"| {s['b_count']} |"
                )
            lines.append("")
        if self.hotspots:
            lines += [
                "## Hotspots (by added cumulative seconds)",
                "",
                f"| function | Δ cum s | cum s ({a}) | cum s ({b}) |",
                "|---|---:|---:|---:|",
            ]
            for h in self.hotspots[:top]:
                lines.append(
                    f"| `{h['func']}` | {h['delta_s']:+.6f} "
                    f"| {h['a_cum']:.6f} | {h['b_cum']:.6f} |"
                )
            lines.append("")
        if self.counters:
            lines += [
                "## Counters (by |Δ|)",
                "",
                f"| counter | {a} | {b} | Δ |",
                "|---|---:|---:|---:|",
            ]
            for c in self.counters[:top]:
                lines.append(
                    f"| {c['key']} | {c['a']} | {c['b']} | {c['delta']:+d} |"
                )
            lines.append("")
        suspects = self.rank()
        if suspects:
            lines.append("## Top suspects")
            lines.append("")
            for i, s in enumerate(suspects, start=1):
                lines.append(
                    f"{i}. {s['kind']} `{s['name']}` (+{s['delta_s']:.6f}s)"
                )
            lines.append("")
        if len(lines) == 2:
            lines.append("(no differences)")
        return "\n".join(lines)


def diff_runs(
    metrics_a: dict,
    metrics_b: dict,
    profile_a: Optional[dict] = None,
    profile_b: Optional[dict] = None,
    labels: Tuple[str, str] = ("A", "B"),
) -> TelemetryDiff:
    """Compute the ranked delta between two runs (A = base, B = new)."""
    counters_a = metrics_a.get("counters") or {}
    counters_b = metrics_b.get("counters") or {}
    counters = []
    for key in sorted(set(counters_a) | set(counters_b)):
        va, vb = counters_a.get(key, 0), counters_b.get(key, 0)
        if va == vb:
            continue
        counters.append(
            {
                "key": key,
                "a": va,
                "b": vb,
                "delta": vb - va,
                "ratio": (vb / va) if va else None,
            }
        )
    counters.sort(key=lambda c: abs(c["delta"]), reverse=True)

    stats_a = _span_stats(metrics_a)
    stats_b = _span_stats(metrics_b)
    spans = []
    for span in sorted(set(stats_a) | set(stats_b)):
        sa = stats_a.get(span, {"sum": 0.0, "count": 0, "mean": 0.0})
        sb = stats_b.get(span, {"sum": 0.0, "count": 0, "mean": 0.0})
        spans.append(
            {
                "span": span,
                "a_sum": sa["sum"],
                "b_sum": sb["sum"],
                "delta_s": sb["sum"] - sa["sum"],
                "a_count": sa["count"],
                "b_count": sb["count"],
                "delta_mean": sb["mean"] - sa["mean"],
            }
        )
    spans.sort(key=lambda s: s["delta_s"], reverse=True)

    hot_a = _hotspot_cums(profile_a)
    hot_b = _hotspot_cums(profile_b)
    hotspots = []
    for func in sorted(set(hot_a) | set(hot_b)):
        ha = hot_a.get(func, {"cum_s": 0.0})
        hb = hot_b.get(func, {"cum_s": 0.0})
        hotspots.append(
            {
                "func": func,
                "a_cum": ha["cum_s"],
                "b_cum": hb["cum_s"],
                "delta_s": hb["cum_s"] - ha["cum_s"],
            }
        )
    hotspots.sort(key=lambda h: h["delta_s"], reverse=True)
    return TelemetryDiff(counters, spans, hotspots, labels=labels)


def load_run_document(path: str) -> Tuple[dict, Optional[dict]]:
    """Load ``(metrics, profile)`` from an exported JSON file.

    Accepts a plain metrics document, a combined run document
    (``kind: repro-telemetry-run``), or a bare profile document (which
    yields empty metrics).
    """
    from repro.telemetry.profile import PROFILE_KIND
    from repro.telemetry.schema import METRICS_KIND

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    kind = doc.get("kind")
    if kind == RUN_KIND:
        return doc.get("metrics") or {}, doc.get("profile")
    if kind == METRICS_KIND:
        return doc, None
    if kind == PROFILE_KIND:
        return {}, doc
    raise ValueError(
        f"{path}: unrecognised document kind {kind!r} (expected "
        f"{RUN_KIND!r}, {METRICS_KIND!r} or {PROFILE_KIND!r})"
    )
