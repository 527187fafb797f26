"""``python -m repro.telemetry`` -- render, validate and export.

Subcommands:

- ``report PATH``: render a saved metrics document (written by
  ``--telemetry=PATH`` on the experiments runner or ``python -m
  repro.verify``) as Markdown; a document that fails ``validate`` is
  refused with exit 2, listing its problems.
- ``validate PATH``: check a metrics document -- and optionally a
  ``--trace`` JSON-lines file -- against the documented schema; exit 1
  listing every problem when invalid.
- ``timeline TRACE -o OUT``: convert a ``--trace-out`` JSON-lines trace
  into Chrome-trace/Perfetto JSON (load in https://ui.perfetto.dev);
  worker processes render as their own lanes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.telemetry.export import render_markdown
from repro.telemetry.schema import (
    validate_metrics_doc,
    validate_trace_file,
)

__all__ = ["main"]


def _load(path: str, stream) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        print(f"error: no such metrics file: {path}", file=stream)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=stream)
    return None


def _print_problems(problems: List[str], stream) -> None:
    print(f"INVALID: {len(problems)} problem(s)", file=stream)
    for problem in problems:
        print(f"  - {problem}", file=stream)


def _cmd_report(args, stream) -> int:
    doc = _load(args.path, stream)
    if doc is None:
        return 2
    problems = validate_metrics_doc(doc)
    if problems:
        _print_problems(problems, stream)
        return 2
    rendered = render_markdown(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
            if not rendered.endswith("\n"):
                fh.write("\n")
        print(f"wrote {args.out}", file=stream)
    else:
        print(rendered, file=stream)
    return 0


def _cmd_validate(args, stream) -> int:
    doc = _load(args.path, stream)
    if doc is None:
        return 2
    problems = validate_metrics_doc(doc)
    if args.trace is not None:
        try:
            problems += [f"trace: {p}" for p in validate_trace_file(args.trace)]
        except OSError as exc:
            problems.append(f"trace: cannot read {args.trace}: {exc}")
    if problems:
        _print_problems(problems, stream)
        return 1
    counters = len(doc.get("counters", {}))
    histograms = len(doc.get("histograms", {}))
    print(
        f"ok: schema-valid metrics document "
        f"({counters} counters, {histograms} histograms)",
        file=stream,
    )
    return 0


def _cmd_timeline(args, stream) -> int:
    from repro.telemetry.timeline import write_chrome_trace

    try:
        summary = write_chrome_trace(args.trace, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=stream)
        return 2
    print(
        f"wrote {summary['out']}: {summary['spans']} spans across "
        f"{len(summary['pids'])} process(es) "
        f"({summary['skipped']} line(s) skipped, "
        f"{summary['span_id_collisions']} span-id collision(s))",
        file=stream,
    )
    return 1 if summary["span_id_collisions"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Render, validate and export saved telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render a saved metrics file as Markdown"
    )
    report.add_argument("path", help="metrics JSON written by --telemetry")
    report.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )

    validate = sub.add_parser(
        "validate", help="check telemetry files against the schema"
    )
    validate.add_argument("path", help="metrics JSON written by --telemetry")
    validate.add_argument(
        "--trace",
        default=None,
        help="also validate a JSON-lines trace file (--trace-out output)",
    )

    timeline = sub.add_parser(
        "timeline",
        help="export a JSON-lines trace as Chrome-trace/Perfetto JSON",
    )
    timeline.add_argument("trace", help="JSON-lines trace (--trace-out output)")
    timeline.add_argument(
        "-o", "--out", required=True, help="Chrome-trace JSON output path"
    )

    args = parser.parse_args(argv)
    stream = sys.stdout
    handler = {
        "report": _cmd_report,
        "validate": _cmd_validate,
        "timeline": _cmd_timeline,
    }[args.command]
    return handler(args, stream)
