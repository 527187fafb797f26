"""``python -m repro.verify`` -- run the verification layers.

Exit status 0 means every requested layer passed; 1 means at least one
differential replay diverged, an invariant broke, or the golden gate
found drift.  ``--refresh --reason '<why>'`` rewrites the golden
baseline instead of checking it.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import telemetry
from repro.common.cli import positive_int
from repro.engine.engine import Engine
from repro.verify.differential import run_differential
from repro.verify.golden import (
    compare,
    compute_entries,
    load_baseline,
    write_baseline,
)
from repro.verify.matrix import (
    CASES,
    PROFILES,
    VerifyError,
    assert_full_coverage,
    timing_jobs_for_profile,
)
from repro.verify.metamorphic import run_invariants
from repro.verify.mutation import MUTATIONS, apply_mutation

__all__ = ["main", "run_verification"]


def _run_differential_layer(engine, profile, stream) -> List[str]:
    failures = []
    print(
        f"== differential: {len(CASES)} cases x "
        f"{profile.differential_branches} branches ==",
        file=stream,
    )
    trace = engine.trace(
        profile.benchmarks[0], profile.differential_branches, seed=1
    )
    for case in CASES:
        report = run_differential(
            trace,
            case.predictor,
            case.estimator,
            case.policy,
            label=case.label,
        )
        print(report.format(), file=stream)
        if not report.ok:
            failures.append(f"differential: {report.format()}")
    return failures


def _run_invariant_layer(engine, profile, stream) -> List[str]:
    failures = []
    print("== metamorphic invariants ==", file=stream)
    for result in run_invariants(engine, profile):
        print(result.format(), file=stream)
        if not result.ok:
            failures.append(f"invariant: {result.format()}")
    return failures


def _run_fastpath_layer(engine, profile, stream) -> List[str]:
    from repro.verify.fastpath import run_fastpath_differential

    failures = []
    print(
        f"== fastpath: {len(CASES)} cases x "
        f"{profile.differential_branches} branches ==",
        file=stream,
    )

    trace = engine.trace(
        profile.benchmarks[0], profile.differential_branches, seed=1
    )
    for case in CASES:
        report = run_fastpath_differential(
            trace,
            case.predictor,
            case.estimator,
            case.policy,
            label=case.label,
        )
        print(report.format(), file=stream)
        if not report.ok:
            failures.append(f"fastpath: {report.format()}")
    return failures


def _run_store_layer(engine, profile, stream) -> List[str]:
    """Round-trip the result store on one real replay.

    Persist a small job's canonical metrics into an ephemeral store,
    read them back (digest re-validated on read), then corrupt the row
    and require the store to reject it -- the integrity half of
    docs/sweeps.md, checked on every verify run because it is cheap.
    """
    from repro.engine.job import SimJob
    from repro.results import ResultStore
    from repro.verify.matrix import CASES as _CASES

    failures = []
    print("== result store: round-trip + corruption rejection ==", file=stream)
    case = _CASES[0]
    job = SimJob(
        benchmark=profile.benchmarks[0],
        n_branches=profile.differential_branches,
        warmup=profile.differential_branches // 3,
        seed=1,
        predictor=case.predictor,
        estimator=case.estimator,
        policy=case.policy,
    )
    outcome = engine.replay(job)
    metrics = outcome.canonical_metrics()
    with ResultStore(":memory:") as store:
        store.put_job(job, metrics)
        record = store.get_job(job.fingerprint)
        if record is None or record.metrics != metrics:
            failures.append(
                "store: round-trip mismatch for "
                f"{job.fingerprint[:12]}: {record!r}"
            )
        if store.missing([job]):
            failures.append("store: stored job still reported missing")
        store.corrupt_job(job.fingerprint)
        if store.get_job(job.fingerprint) is not None:
            failures.append("store: corrupt row passed digest validation")
        if not store.missing([job]):
            failures.append("store: corrupt row not scheduled for re-run")
    status = "FAIL" if failures else "ok  "
    print(
        f"{status} store: put/get round-trip and corruption rejection "
        f"on {job.fingerprint[:12]}",
        file=stream,
    )
    return failures


def _run_golden_layer(engine, profile, refresh, reason, stream, backend) -> List[str]:
    print(
        f"== golden gate [{profile.name}, backend={backend}]: "
        f"{len(CASES)} cases x "
        f"{len(profile.benchmarks)} benchmarks, plus "
        f"{len(timing_jobs_for_profile(profile))} timing entries ==",
        file=stream,
    )
    entries = compute_entries(profile, engine, backend=backend)
    if refresh:
        path = write_baseline(profile, entries, reason)
        print(f"refreshed {path} ({len(entries)} entries): {reason}", file=stream)
        return []
    baseline = load_baseline(profile.name)
    report = compare(baseline, entries, profile.name)
    print(report.format(), file=stream)
    if report.ok:
        return []
    return [f"golden: {line}" for line in report.format().splitlines()[1:]]


def run_verification(
    profile_name: str,
    differential: bool = True,
    invariants: bool = True,
    golden: bool = True,
    refresh: bool = False,
    reason: Optional[str] = None,
    mutate: Optional[str] = None,
    jobs: int = 1,
    markdown: Optional[str] = None,
    stream=None,
    fastpath: bool = True,
    store: bool = True,
    backend: str = "reference",
    telemetry_path: Optional[str] = None,
    trace_out: Optional[str] = None,
) -> int:
    """Run the requested verification layers; returns an exit status.

    All requested layers run to completion even after a failure, so one
    invocation reports every problem at once.  ``telemetry_path`` /
    ``trace_out`` enable the telemetry layer (observational only: the
    layers' verdicts, including golden digests, are identical with it
    on or off) and write the metrics document / span stream there.
    """
    stream = stream if stream is not None else sys.stdout
    profile = PROFILES[profile_name]
    if refresh and not (reason and reason.strip()):
        print("error: --refresh requires --reason '<why>'", file=stream)
        return 2
    if mutate is not None and jobs != 1:
        # Mutations monkey-patch in process; worker processes would
        # re-import pristine modules and silently undo them.
        jobs = 1
    if telemetry_path or trace_out:
        telemetry.enable()
        if trace_out:
            telemetry.set_trace_path(trace_out)
    engine = Engine(max_workers=jobs)

    failures: List[str] = []
    layers = []
    try:
        assert_full_coverage()
        layers.append(("coverage", True, "all registered kinds covered"))
    except VerifyError as exc:
        failures.append(f"coverage: {exc}")
        layers.append(("coverage", False, str(exc)))
        print(f"FAIL coverage: {exc}", file=stream)

    def _layers():
        if differential:
            yield "differential", lambda: _run_differential_layer(
                engine, profile, stream
            )
        if invariants:
            yield "invariants", lambda: _run_invariant_layer(
                engine, profile, stream
            )
        if fastpath:
            yield "fastpath", lambda: _run_fastpath_layer(
                engine, profile, stream
            )
        if store:
            yield "store", lambda: _run_store_layer(
                engine, profile, stream
            )
        if golden:
            yield "golden", lambda: _run_golden_layer(
                engine, profile, refresh, reason, stream, backend
            )

    tel = telemetry.get_registry()

    def _run_layers():
        for name, run_layer in _layers():
            started = time.monotonic()
            with telemetry.trace_span("verify." + name, profile=profile.name):
                layer_failures = run_layer()
            if tel.enabled:
                tel.counter(
                    "verify_layer_total",
                    layer=name,
                    status="fail" if layer_failures else "pass",
                ).inc()
                tel.histogram("verify_layer_seconds", layer=name).observe(
                    time.monotonic() - started
                )
            failures.extend(layer_failures)
            layers.append(
                (name, not layer_failures, f"{len(layer_failures)} failure(s)")
            )

    try:
        if mutate is not None:
            with apply_mutation(mutate):
                _run_layers()
        else:
            _run_layers()
    except VerifyError as exc:
        failures.append(str(exc))
        print(f"FAIL {exc}", file=stream)

    if markdown:
        from repro.analysis.report import render_verification_report

        with open(markdown, "w", encoding="utf-8") as fh:
            fh.write(
                render_verification_report(
                    layers,
                    title=f"Verification report ({profile.name})",
                    failures=failures,
                )
            )
            fh.write("\n")
        print(f"wrote {markdown}", file=stream)

    if telemetry_path:
        print(
            f"wrote telemetry metrics to "
            f"{telemetry.write_metrics(telemetry_path)}",
            file=stream,
        )
    if trace_out:
        telemetry.close_trace()
        print(f"wrote telemetry trace to {trace_out}", file=stream)

    if failures:
        print(f"\nverification FAILED ({len(failures)} problem(s)):", file=stream)
        for failure in failures:
            print(f"  - {failure}", file=stream)
        return 1
    print("\nverification passed", file=stream)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential, metamorphic and golden-gate verification.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the quick profile (smaller traces, fewer benchmarks)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="rewrite the golden baseline instead of checking it",
    )
    parser.add_argument(
        "--reason",
        default=None,
        help="why the baseline is being refreshed (required with --refresh)",
    )
    parser.add_argument(
        "--mutate",
        default=None,
        choices=sorted(MUTATIONS),
        help="activate a named mutation first (the gate must then fail)",
    )
    parser.add_argument(
        "--skip-differential", action="store_true", help="skip layer 1"
    )
    parser.add_argument(
        "--skip-invariants", action="store_true", help="skip layer 2"
    )
    parser.add_argument(
        "--skip-fastpath",
        action="store_true",
        help="skip the fast-vs-reference backend cross-check layer",
    )
    parser.add_argument(
        "--skip-store",
        action="store_true",
        help="skip the result-store round-trip/corruption layer",
    )
    parser.add_argument("--skip-golden", action="store_true", help="skip layer 3")
    parser.add_argument(
        "--backend",
        choices=("reference", "fast"),
        default="reference",
        help=(
            "execution backend for the golden-gate runs; the baseline "
            "identity stays pinned to the reference fingerprints, so "
            "'fast' proves backend metric equality byte for byte"
        ),
    )
    parser.add_argument(
        "--jobs", type=positive_int, default=1, help="engine worker processes"
    )
    parser.add_argument(
        "--markdown", default=None, help="also write a markdown report here"
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const="telemetry.json",
        default=None,
        metavar="PATH",
        help=(
            "collect telemetry and write the metrics document to PATH "
            "(default telemetry.json); observational only -- verdicts "
            "and golden digests are unchanged (see docs/observability.md)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write the span/log event stream as JSON lines to PATH",
    )
    args = parser.parse_args(argv)
    if args.refresh and not args.reason:
        parser.error("--refresh requires --reason '<why>'")
    return run_verification(
        "quick" if args.quick else "full",
        differential=not args.skip_differential,
        invariants=not args.skip_invariants,
        golden=not args.skip_golden,
        refresh=args.refresh,
        reason=args.reason,
        mutate=args.mutate,
        jobs=args.jobs,
        markdown=args.markdown,
        fastpath=not args.skip_fastpath,
        store=not args.skip_store,
        backend=args.backend,
        telemetry_path=args.telemetry,
        trace_out=args.trace_out,
    )
