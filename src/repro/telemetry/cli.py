"""``python -m repro.telemetry`` -- render, validate, export and diff.

Subcommands:

- ``report PATH``: render a saved metrics document (written by
  ``--telemetry=PATH`` on the experiments runner or ``python -m
  repro.verify``) as Markdown (default), Prometheus text or JSON.
- ``validate PATH``: check a metrics document -- and optionally a
  ``--trace`` JSON-lines file -- against the documented schema; exit 1
  listing every problem when invalid.
- ``timeline TRACE -o OUT``: convert a ``--trace-out`` JSON-lines trace
  into Chrome-trace/Perfetto JSON (load in https://ui.perfetto.dev);
  worker processes render as their own lanes.
- ``diff A B``: rank what changed between two telemetry runs --
  exported JSON files, or result-store run ids with ``--store``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.telemetry.export import (
    render_json,
    render_markdown,
    render_prometheus,
)
from repro.telemetry.schema import (
    validate_metrics_doc,
    validate_trace_file,
)

__all__ = ["main"]

_RENDERERS = {
    "markdown": render_markdown,
    "prometheus": render_prometheus,
    "json": render_json,
}


def _load(path: str, stream) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        print(f"error: no such metrics file: {path}", file=stream)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=stream)
    return None


def _cmd_report(args, stream) -> int:
    doc = _load(args.path, stream)
    if doc is None:
        return 2
    problems = validate_metrics_doc(doc)
    if problems:
        print(
            f"warning: rendering a non-schema-valid document "
            f"({len(problems)} problem(s); run the validate subcommand)",
            file=sys.stderr,
        )
    rendered = _RENDERERS[args.format](doc)
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
        print(f"INVALID: {len(problems)} problem(s)", file=stream)
        for problem in problems:
            print(f"  - {problem}", file=stream)
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


def _resolve_diff_operand(token: str, store_path: Optional[str], stream):
    """A diff operand: a store run id (all digits, with --store) or a
    JSON file path.  Returns (metrics, profile, label) or None."""
    from repro.telemetry.diff import load_run_document

    if token.isdigit() and store_path is not None:
        from repro.results import ResultStore

        if not os.path.exists(store_path):
            print(f"error: result store {store_path} is missing", file=stream)
            return None
        with ResultStore(store_path) as store:
            run = store.get_telemetry(int(token))
        if run is None:
            print(f"error: no telemetry run {token} in {store_path}", file=stream)
            return None
        return run.metrics, run.profile, f"run {run.run_id} ({run.name})"
    try:
        metrics, profile = load_run_document(token)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=stream)
        return None
    return metrics, profile, token


def _cmd_diff(args, stream) -> int:
    from repro.telemetry.diff import diff_runs

    a = _resolve_diff_operand(args.run_a, args.store, stream)
    if a is None:
        return 2
    b = _resolve_diff_operand(args.run_b, args.store, stream)
    if b is None:
        return 2
    diff = diff_runs(a[0], b[0], a[1], b[1], labels=(a[2], b[2]))
    if args.format == "json":
        print(json.dumps(diff.as_dict(top=args.top), indent=2), file=stream)
    else:
        print(diff.render_markdown(top=args.top), file=stream)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Render, validate, export and diff saved telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="render a saved metrics file")
    report.add_argument("path", help="metrics JSON written by --telemetry")
    report.add_argument(
        "--format",
        choices=sorted(_RENDERERS),
        default="markdown",
        help="output format (default: markdown)",
    )
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

    diff = sub.add_parser(
        "diff", help="rank what changed between two telemetry runs"
    )
    diff.add_argument("run_a", help="baseline: JSON file or store run id")
    diff.add_argument("run_b", help="comparison: JSON file or store run id")
    diff.add_argument(
        "--store",
        default=None,
        help="sqlite result store to resolve numeric run ids against",
    )
    diff.add_argument(
        "--format",
        choices=("markdown", "json"),
        default="markdown",
        help="output format (default: markdown)",
    )
    diff.add_argument(
        "--top", type=int, default=10, help="rows per section (default: 10)"
    )

    args = parser.parse_args(argv)
    stream = sys.stdout
    handler = {
        "report": _cmd_report,
        "validate": _cmd_validate,
        "timeline": _cmd_timeline,
        "diff": _cmd_diff,
    }[args.command]
    return handler(args, stream)
