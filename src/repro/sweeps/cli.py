"""``python -m repro.sweeps`` -- declarative sweeps over the store.

Subcommands::

    run    SPEC...   expand spec(s), execute missing work, store results
    render SPEC...   rebuild the Markdown report purely from the store
    status           row counts and stored records
    query            stored job rows, filterable, optionally as JSON
    bench  SPEC      time the spec's job set, gate against history

Everything is keyed by content (job fingerprints, record keys), so
re-running ``run`` is always safe: completed work is read back from
the sqlite store and only missing jobs execute.  The default store
lives at ``.sweeps/results.sqlite`` with the engine's disk replay
cache beside it at ``.sweeps/cache``.

``run`` takes the flags :func:`add_run_args` declares, and
:func:`run_specs` is its body; ``python -m repro.experiments`` is the
same ``run`` over a one-spec selection against an in-memory store.
Sizing flags (``--quick`` / ``--branches`` / ``--backend``) compose in
the order :func:`repro.experiments.runner.resolve_settings` documents;
instance overrides in the spec apply on top.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import List, Optional

from repro import telemetry
from repro.engine import configure_engine
from repro.results import ResultStore, append_trajectory, check_regression

from repro.sweeps.executor import render_from_store, run_sweep
from repro.sweeps.spec import (
    SweepSpecError,
    builtin_spec_names,
    load_spec,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_STORE",
    "add_run_args",
    "main",
    "run_specs",
]

DEFAULT_STORE = ".sweeps/results.sqlite"
DEFAULT_CACHE_DIR = ".sweeps/cache"


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        metavar="PATH",
        help=f"sqlite result store (default {DEFAULT_STORE})",
    )


def _add_sizing_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run at 1/5 scale for a fast sanity pass",
    )
    parser.add_argument(
        "--branches",
        type=int,
        default=None,
        help="override trace length (warm-up scales to one third)",
    )
    parser.add_argument(
        "--backend",
        choices=("reference", "fast"),
        default=None,
        help="engine backend for every replay",
    )


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def add_run_args(
    parser: argparse.ArgumentParser, cache_dir: Optional[str] = None
) -> None:
    """Declare the flags of a suite run: sizing, engine, outputs.

    The one declaration behind ``sweeps run`` and ``python -m
    repro.experiments``, consumed by :func:`run_specs`; only the
    ``--cache-dir`` default differs between the two commands.
    """
    _add_sizing_args(parser)
    parser.add_argument(
        "--jobs", type=_worker_count, default=1, metavar="N",
        help=(
            "fan replay execution out over N worker processes "
            "(default 1: run in this process)"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=cache_dir, metavar="PATH",
        help=(
            "persist replays on disk at PATH across runs"
            + (f" (default {cache_dir})" if cache_dir else "")
        ),
    )
    parser.add_argument(
        "--markdown", default=None, metavar="PATH",
        help="also render the report from the store to PATH",
    )
    parser.add_argument(
        "--telemetry", nargs="?", const="telemetry.json", default=None,
        metavar="PATH",
        help=(
            "write the telemetry metrics document to PATH (default "
            "telemetry.json); observational only, see docs/observability.md"
        ),
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the span/log event stream as JSON lines to PATH",
    )
    parser.add_argument(
        "--profile", nargs="?", const="", default=None, metavar="PATH",
        help=(
            "profile each replay (cProfile + per-span CPU/alloc); "
            "with PATH, also write the profile document there"
        ),
    )


def _specs(names: List[str]):
    return [load_spec(name) for name in names]


def _settings(args):
    from repro.experiments.runner import resolve_settings

    return resolve_settings(
        quick=args.quick, branches=args.branches, backend=args.backend
    )


def _jobs_fingerprint(specs, base) -> str:
    """Content address of the combined job set a run covers."""
    from repro.sweeps.dag import SweepDag

    fingerprints = sorted(
        job.fingerprint
        for spec in specs
        for job in SweepDag.from_spec(spec, base).job_list()
    )
    return hashlib.sha256("\n".join(fingerprints).encode("utf-8")).hexdigest()


def _write_markdown(path: str, markdown: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(markdown)
        fh.write("\n")
    print(f"wrote Markdown report to {path}")


def _store_line(path: str, summary: dict) -> str:
    return (
        f"store {path}: {summary['jobs']} job(s), "
        f"{summary['experiments']} experiment record(s), "
        f"{summary['bench']} bench sample(s), "
        f"{summary['telemetry']} telemetry run(s)"
    )


def run_specs(args, specs, store_path: str) -> int:
    """Run sweep specs into the store at ``store_path``.

    The body of ``sweeps run`` and ``python -m repro.experiments``,
    driven by the flags :func:`add_run_args` declares: engine and
    telemetry set-up, one :func:`run_sweep` per spec, then the report
    and the end-of-run writes.  ``--jobs`` alone picks the executor
    (``"auto"``): a process pool when it is above 1, serial otherwise.
    """
    base = _settings(args)
    configure_engine(
        max_workers=args.jobs, cache_dir=args.cache_dir, executor="auto"
    )
    collecting = bool(
        args.telemetry or args.trace_out or args.profile is not None
    )
    if collecting:
        telemetry.enable()
        if args.trace_out:
            telemetry.set_trace_path(args.trace_out)
    if args.profile is not None:
        telemetry.enable_profiling()
        telemetry.reset_profile()
    with ResultStore(store_path) as store:
        for spec in specs:
            print(run_sweep(spec, store, base, stream=sys.stdout).format())
        if args.markdown:
            _write_markdown(
                args.markdown,
                "\n".join(
                    render_from_store(spec, store, base) for spec in specs
                ),
            )
        if collecting:
            # Persist this run's telemetry (and profile digest) so the
            # history is queryable and diffable later.
            profile_doc = (
                telemetry.profile_document()
                if args.profile is not None
                else None
            )
            run_id = store.put_telemetry(
                name="sweep-" + "+".join(spec.name for spec in specs),
                fingerprint=_jobs_fingerprint(specs, base),
                metrics=telemetry.metrics_doc(),
                profile=profile_doc,
                meta={"specs": [spec.name for spec in specs],
                      "workers": args.jobs},
            )
            print(f"stored telemetry run {run_id} in {store_path}")
        summary = store.summary()
    print(_store_line(store_path, summary))
    if args.telemetry:
        print("wrote telemetry metrics to "
              + telemetry.write_metrics(args.telemetry))
    if args.profile:
        from repro.telemetry.profile import write_profile

        write_profile(args.profile)
        print(f"wrote profile document to {args.profile}")
    if args.profile is not None:
        telemetry.disable_profiling()
    if args.trace_out:
        telemetry.close_trace()
        print(f"wrote telemetry trace to {args.trace_out}")
    return 0


def _cmd_render(args) -> int:
    specs = _specs(args.specs)
    base = _settings(args)
    with ResultStore(args.store) as store:
        try:
            markdown = "\n".join(
                render_from_store(spec, store, base) for spec in specs
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
    if args.markdown:
        _write_markdown(args.markdown, markdown)
    else:
        print(markdown)
    return 0


def _cmd_status(args) -> int:
    with ResultStore(args.store) as store:
        summary = store.summary()
        records = store.experiment_keys()
        print(_store_line(args.store, summary))
        for key, experiment in records:
            print(f"  {key[:12]}  {experiment}")
        print(f"builtin specs: {', '.join(builtin_spec_names())}")
    return 0


def _cmd_query(args) -> int:
    with ResultStore(args.store) as store:
        if args.run is not None:
            run = store.get_telemetry(args.run)
            if run is None:
                print(
                    f"error: no telemetry run {args.run} in {args.store}",
                    file=sys.stderr,
                )
                return 1
            from repro.telemetry.diff import RUN_KIND

            print(
                json.dumps(
                    {
                        "kind": RUN_KIND,
                        "run_id": run.run_id,
                        "name": run.name,
                        "fingerprint": run.fingerprint,
                        "metrics": run.metrics,
                        "profile": run.profile,
                        "meta": run.meta,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        if args.runs:
            runs = store.telemetry_runs(name=args.benchmark)
            for run_id, name, fingerprint, has_profile in runs:
                profiled = " +profile" if has_profile else ""
                print(f"{run_id:>6}  {name:<24} {fingerprint[:12]}{profiled}")
            print(f"{len(runs)} telemetry run(s)")
            return 0
        records = store.query_jobs(
            benchmark=args.benchmark, backend=args.query_backend
        )
        if args.json:
            payload = [
                {
                    "fingerprint": r.fingerprint,
                    "benchmark": r.benchmark,
                    "n_branches": r.n_branches,
                    "warmup": r.warmup,
                    "seed": r.seed,
                    "backend": r.backend,
                    "metrics": r.metrics,
                }
                for r in records
            ]
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for r in records:
                print(
                    f"{r.fingerprint[:12]}  {r.benchmark:<10} "
                    f"{r.n_branches:>8} br  seed {r.seed}  {r.backend:<9} "
                    f"mispredictions {r.metrics.get('mispredictions', '?')}"
                )
            print(f"{len(records)} job row(s)")
    return 0


def _cmd_bench(args) -> int:
    from repro.engine.engine import Engine
    from repro.telemetry.registry import SECONDS_BUCKETS

    spec = load_spec(args.spec)
    base = _settings(args)
    from repro.sweeps.dag import SweepDag

    dag = SweepDag.from_spec(spec, base)
    jobs = dag.job_list()
    # A private engine with cold caches: the sample must time real
    # replay work, not the shared engine's warm cache.
    engine = Engine(max_workers=args.jobs)
    # Telemetry rides along (delta-snapshotted around the timed run) so
    # the gate can attribute a regression, not just flag it.
    tel = telemetry.get_registry()
    was_enabled = tel.enabled
    tel.enabled = True
    if args.profile is not None:
        telemetry.enable_profiling()
        telemetry.reset_profile()
    before = tel.snapshot()
    start = time.monotonic()
    engine.run(jobs)
    seconds = time.monotonic() - start
    if args.inject_slowdown != 1.0:
        # Mutation-smoke hook: scale the measured sample so tests and
        # CI can prove the gate fires without a real regression.  The
        # synthetic extra time is attributed to a dedicated span, so
        # the telemetry diff deterministically names the "culprit".
        extra = (args.inject_slowdown - 1.0) * seconds
        seconds *= args.inject_slowdown
        tel.histogram(
            "span_seconds", buckets=SECONDS_BUCKETS,
            span="bench.injected_slowdown",
        ).observe(extra)
        print(f"injected slowdown x{args.inject_slowdown:g} (smoke mode)")
    metrics_doc = telemetry.metrics_doc(tel.snapshot().since(before))
    profile_doc = (
        telemetry.profile_document() if args.profile is not None else None
    )
    if args.profile:
        from repro.telemetry.profile import write_profile

        write_profile(args.profile)
        print(f"wrote profile document to {args.profile}")
    if args.profile is not None:
        telemetry.disable_profiling()
    tel.enabled = was_enabled
    name = args.name or f"sweep-{spec.name}"
    with ResultStore(args.store) as store:
        verdict = check_regression(
            store,
            name,
            seconds,
            max_ratio=args.max_ratio,
            meta={
                "spec": spec.name,
                "jobs": len(jobs),
                "n_branches": base.n_branches,
                "workers": args.jobs,
            },
            metrics_doc=metrics_doc,
            profile_doc=profile_doc,
        )
    print(verdict.format())
    if args.trajectory:
        points = append_trajectory(
            args.trajectory, name, seconds, label=args.label
        )
        print(f"appended point {len(points)} to {args.trajectory}")
    return 0 if verdict.passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweeps",
        description=(
            "Declarative sweep DAGs over the sqlite result store "
            f"(builtin specs: {', '.join(builtin_spec_names())})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="execute a sweep spec, resuming from the store"
    )
    p_run.add_argument(
        "specs",
        nargs="*",
        default=["paper"],
        metavar="SPEC",
        help="builtin spec names or paths (default: paper)",
    )
    _add_store_arg(p_run)
    add_run_args(p_run, cache_dir=DEFAULT_CACHE_DIR)
    p_run.set_defaults(
        func=lambda args: run_specs(args, _specs(args.specs), args.store)
    )

    p_render = sub.add_parser(
        "render", help="rebuild the Markdown report purely from the store"
    )
    p_render.add_argument(
        "specs", nargs="*", default=["paper"], metavar="SPEC",
        help="builtin spec names or paths (default: paper)",
    )
    _add_store_arg(p_render)
    _add_sizing_args(p_render)
    p_render.add_argument(
        "--markdown", default=None, metavar="PATH",
        help="write to PATH instead of stdout",
    )
    p_render.set_defaults(func=_cmd_render)

    p_status = sub.add_parser("status", help="store row counts and records")
    _add_store_arg(p_status)
    p_status.set_defaults(func=_cmd_status)

    p_query = sub.add_parser("query", help="list stored job rows")
    _add_store_arg(p_query)
    p_query.add_argument("--benchmark", default=None, help="filter by benchmark")
    p_query.add_argument(
        "--query-backend", default=None, choices=("reference", "fast"),
        help="filter by backend",
    )
    p_query.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    p_query.add_argument(
        "--runs", action="store_true",
        help="list stored telemetry runs (--benchmark filters by name)",
    )
    p_query.add_argument(
        "--run", type=int, default=None, metavar="ID",
        help="dump one telemetry run as a JSON document (diffable)",
    )
    p_query.set_defaults(func=_cmd_query)

    p_bench = sub.add_parser(
        "bench",
        help="time a spec's job set and gate against stored history",
    )
    p_bench.add_argument("spec", metavar="SPEC", help="builtin name or path")
    _add_store_arg(p_bench)
    _add_sizing_args(p_bench)
    p_bench.add_argument(
        "--jobs", type=_worker_count, default=1, metavar="N",
        help="engine worker processes",
    )
    p_bench.add_argument(
        "--name", default=None,
        help="bench series name (default sweep-<spec>)",
    )
    p_bench.add_argument(
        "--max-ratio", type=float, default=1.5,
        help="fail when sample exceeds best * ratio (default 1.5)",
    )
    p_bench.add_argument(
        "--inject-slowdown", type=float, default=1.0, metavar="R",
        help="multiply the measured time by R (gate mutation smoke)",
    )
    p_bench.add_argument(
        "--trajectory", default=None, metavar="PATH",
        help="also append the sample to a BENCH_*.json trajectory file",
    )
    p_bench.add_argument(
        "--label", default="", help="label for the trajectory point"
    )
    p_bench.add_argument(
        "--profile", nargs="?", const="", default=None, metavar="PATH",
        help=(
            "profile the timed run; the digest is stored with the "
            "telemetry run (with PATH, also written as JSON)"
        ),
    )
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SweepSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
