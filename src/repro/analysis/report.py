"""Markdown report generation for experiment results.

Renders any collection of experiment results (objects exposing rows via
``as_dict`` and a ``format()`` summary) into one Markdown document with
a section per experiment -- the machine-generated counterpart of the
hand-curated EXPERIMENTS.md.  The sweep report behind ``--markdown`` on
``python -m repro.sweeps run`` and ``python -m repro.experiments`` is
rendered here (:func:`repro.sweeps.report_markdown`); directly
scriptable too.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.export import rows_from_result

__all__ = [
    "markdown_table",
    "render_report",
    "render_verification_report",
    "write_report",
]


def markdown_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render dict rows as a GitHub-flavoured Markdown table."""
    if not rows:
        return "*(no rows)*"
    if columns is None:
        columns = list(rows[0].keys())
    header = "| " + " | ".join(str(c) for c in columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = []
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.2f}")
            else:
                cells.append(str(value))
        body.append("| " + " | ".join(cells) + " |")
    return "\n".join([header, rule] + body)


def render_report(
    results: Dict[str, object],
    title: str = "Experiment report",
    preamble: Optional[str] = None,
) -> str:
    """Render experiment results into one Markdown document.

    Args:
        results: Mapping of section name to result object (a live
            experiment result, or a
            :class:`repro.sweeps.StoredResult` read back from the store).
        title: Document heading.
        preamble: Optional text inserted after the heading.
    """
    lines: List[str] = [f"# {title}", ""]
    if preamble:
        lines += [preamble, ""]
    for name, result in results.items():
        lines.append(f"## {name}")
        lines.append("")
        try:
            rows = rows_from_result(result)
        except TypeError:
            rows = None
        if rows:
            lines.append(markdown_table(rows))
        elif hasattr(result, "format"):
            lines.append("```")
            lines.append(result.format())
            lines.append("```")
        else:
            lines.append(f"*(unrenderable result of type "
                         f"{type(result).__name__})*")
        lines.append("")
    return "\n".join(lines)


def render_verification_report(
    layers: Sequence[tuple],
    title: str = "Verification report",
    failures: Sequence[str] = (),
) -> str:
    """Render ``python -m repro.verify`` layer outcomes as Markdown.

    Args:
        layers: ``(name, ok, detail)`` triples, one per layer run.
        title: Document heading.
        failures: Flat failure strings, listed verbatim when non-empty.
    """
    lines: List[str] = [f"# {title}", ""]
    lines.append(
        markdown_table(
            [
                {
                    "layer": name,
                    "status": "pass" if ok else "FAIL",
                    "detail": detail,
                }
                for name, ok, detail in layers
            ],
            columns=["layer", "status", "detail"],
        )
    )
    lines.append("")
    if failures:
        lines += ["## Failures", ""]
        lines += [f"- {failure}" for failure in failures]
        lines.append("")
    else:
        lines += ["All layers passed.", ""]
    return "\n".join(lines)


def write_report(
    results: Dict[str, object],
    path: str,
    title: str = "Experiment report",
    preamble: Optional[str] = None,
) -> None:
    """Render and write a Markdown report to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(results, title=title, preamble=preamble))
        fh.write("\n")
