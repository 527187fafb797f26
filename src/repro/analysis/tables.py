"""Plain-text table rendering for experiment reports.

Each experiment prints its reproduced table/figure as an ASCII
table matching the paper's row/column structure, so paper-vs-measured
comparison is a side-by-side read.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

__all__ = ["format_table"]


def _render_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as an aligned ASCII table.

    Args:
        rows: Sequence of mappings; missing keys render as ``-``.
        columns: Column order; defaults to first row's key order.
        title: Optional heading line.
    """
    if not rows:
        return (title + "\n") if title else ""
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        rendered.append([_render_cell(row.get(c)) for c in columns])
    widths = [
        max(len(line[i]) for line in rendered) for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    header, *body = rendered
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)
