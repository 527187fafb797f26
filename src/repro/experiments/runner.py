"""Run every paper experiment and emit a combined report.

``python -m repro.experiments`` runs the full suite at the default
settings (this is how the EXPERIMENTS.md numbers are produced);
``python -m repro.experiments --quick`` runs a reduced sizing for a
fast sanity pass.  Individual experiments can be selected by id, e.g.
``python -m repro.experiments table3 figure8``.

Sizing flags compose in a fixed order: defaults, then ``--quick``
(scales the default sizing to 1/5), then ``--branches N`` (overrides
the trace length outright, warm-up at one third).  ``--extensions``
*adds* the extension set to whatever is selected -- with no explicit
ids that is every experiment, with ids it appends the extensions after
them.

``--jobs N`` fans replay execution out over N worker processes and
``--cache-dir PATH`` persists replays across invocations; neither
changes any result (see :mod:`repro.engine`).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro import telemetry
from repro.engine import EngineStats, configure_engine, get_engine
from repro.telemetry import MetricsSnapshot
from repro.experiments import (
    ablation_combined,
    ablation_history,
    ablation_indexing,
    ablation_training,
    energy,
    figure4_5,
    figure6_7,
    figure8,
    figure9,
    h2p_confidence,
    latency,
    oracle_bound,
    seed_stability,
    smt,
    throttle,
    table2,
    table3,
    table4,
    table5,
    table6,
    warmup_curve,
)
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings

__all__ = ["PAPER_EXPERIMENTS", "EXTENSION_EXPERIMENTS", "EXPERIMENTS",
           "EXPERIMENT_JOBS", "ExperimentRecord", "RunReport",
           "select_experiments", "resolve_settings", "run_all", "main"]

#: The paper's tables and figures.
PAPER_EXPERIMENTS: Dict[str, Callable[[ExperimentSettings], object]] = {
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "figure4_5": figure4_5.run,
    "figure6_7": figure6_7.run,
    "figure8": figure8.run,
    "figure9": figure9.run,
    "latency": latency.run,
}

#: Beyond-the-paper ablations and extensions (run with --extensions or
#: by name).
EXTENSION_EXPERIMENTS: Dict[str, Callable[[ExperimentSettings], object]] = {
    "oracle_bound": oracle_bound.run,
    "energy": energy.run,
    "smt": smt.run,
    "ablation_training": ablation_training.run,
    "ablation_combined": ablation_combined.run,
    "ablation_history": ablation_history.run,
    "ablation_indexing": ablation_indexing.run,
    "seed_stability": seed_stability.run,
    "throttle": throttle.run,
    "warmup_curve": warmup_curve.run,
    "h2p_confidence": h2p_confidence.run,
}

#: Everything selectable by id.
EXPERIMENTS: Dict[str, Callable[[ExperimentSettings], object]] = {
    **PAPER_EXPERIMENTS,
    **EXTENSION_EXPERIMENTS,
}

#: Per-experiment job planners: each returns the exact ``SimJob`` list
#: its ``run()`` submits (empty for in-process experiments like
#: ``warmup_curve``).  The sweep layer expands these into a DAG without
#: executing anything (see :mod:`repro.sweeps`).
EXPERIMENT_JOBS: Dict[str, Callable[[ExperimentSettings], list]] = {
    "table2": table2.jobs,
    "table3": table3.jobs,
    "table4": table4.jobs,
    "table5": table5.jobs,
    "table6": table6.jobs,
    "figure4_5": figure4_5.jobs,
    "figure6_7": figure6_7.jobs,
    "figure8": figure8.jobs,
    "figure9": figure9.jobs,
    "latency": latency.jobs,
    "oracle_bound": oracle_bound.jobs,
    "energy": energy.jobs,
    "smt": smt.jobs,
    "ablation_training": ablation_training.jobs,
    "ablation_combined": ablation_combined.jobs,
    "ablation_history": ablation_history.jobs,
    "ablation_indexing": ablation_indexing.jobs,
    "seed_stability": seed_stability.jobs,
    "throttle": throttle.jobs,
    "warmup_curve": warmup_curve.jobs,
    "h2p_confidence": h2p_confidence.jobs,
}

@dataclass
class ExperimentRecord:
    """One experiment's result plus how it was obtained.

    The cache/execution counters are deltas over this experiment only,
    so a record shows how much of its work was served by replays cached
    from earlier experiments in the same run.  ``telemetry`` holds the
    registry delta for the experiment; the run-summary table is sourced
    from it (cache hit/miss, executing backend), which -- unlike the
    legacy ``EngineStats`` fields -- also folds in counters merged back
    from ``--jobs`` worker processes.
    """

    name: str
    result: object
    seconds: float
    stats: EngineStats
    telemetry: Optional[MetricsSnapshot] = None

    def as_dict(self) -> dict:
        t = self.telemetry if self.telemetry is not None else MetricsSnapshot()
        reference = t.counter("engine_replays_total", backend="reference")
        fast = t.counter("engine_replays_total", backend="fast")
        if fast and reference:
            backend = f"mixed ({reference} ref / {fast} fast)"
        elif fast:
            backend = "fast"
        elif reference:
            backend = "reference"
        else:
            backend = "-"  # fully served from cache
        return {
            "experiment": self.name,
            "seconds": round(self.seconds, 1),
            "replays executed": reference + fast,
            "cache hits": (
                t.counter("cache_replay_hits_total", tier="memory")
                + t.counter("cache_replay_hits_total", tier="disk")
            ),
            "cache misses": t.counter("cache_replay_misses_total"),
            "backend": backend,
        }


class RunReport(Mapping):
    """Ordered experiment results plus per-experiment run records.

    Behaves as a mapping of experiment id to result object (so existing
    ``report["table2"]`` / ``"table2" in report`` call sites keep
    working) and carries :attr:`records` with timing and cache-counter
    deltas for the report generator.
    """

    def __init__(self, records: Optional[List[ExperimentRecord]] = None):
        self.records: List[ExperimentRecord] = list(records or [])

    def add(self, record: ExperimentRecord) -> None:
        self.records.append(record)

    def __getitem__(self, name: str) -> object:
        for record in self.records:
            if record.name == name:
                return record.result
        raise KeyError(name)

    def __iter__(self) -> Iterator[str]:
        return (record.name for record in self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.records)


def select_experiments(
    names: Optional[Sequence[str]] = None, extensions: bool = False
) -> List[str]:
    """Resolve the experiment selection, preserving order, no repeats.

    No ids and no ``--extensions``: the paper set.  ``--extensions``
    appends the extension set to the selection (explicit or default).
    """
    selected = list(names) if names else list(PAPER_EXPERIMENTS)
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    if extensions:
        selected += [n for n in EXTENSION_EXPERIMENTS if n not in selected]
    return selected


def resolve_settings(
    quick: bool = False,
    branches: Optional[int] = None,
    backend: Optional[str] = None,
) -> ExperimentSettings:
    """Apply sizing flags in their documented precedence order."""
    settings = DEFAULT_SETTINGS
    if quick:
        settings = settings.scaled(0.2)
    if branches:
        settings = replace(
            settings, n_branches=branches, warmup=branches // 3
        )
    if backend is not None:
        settings = replace(settings, backend=backend)
    return settings


def run_all(
    settings: ExperimentSettings,
    names: Optional[Sequence[str]] = None,
    stream=None,
    extensions: bool = False,
) -> RunReport:
    """Run the selected experiments, printing each report as it lands."""
    out = stream if stream is not None else sys.stdout
    selected = select_experiments(names, extensions=extensions)
    engine = get_engine()
    report = RunReport()
    # The run-summary columns are sourced from the telemetry registry,
    # so it is always on for the duration of the run (observational
    # only: results and fingerprints are unchanged).
    tel = telemetry.get_registry()
    was_enabled = tel.enabled
    tel.enabled = True
    try:
        for name in selected:
            before = engine.stats.snapshot()
            tel_before = tel.snapshot()
            start = time.time()
            with telemetry.trace_span("experiment", experiment=name):
                result = EXPERIMENTS[name](settings)
            elapsed = time.time() - start
            report.add(
                ExperimentRecord(
                    name=name,
                    result=result,
                    seconds=elapsed,
                    stats=engine.stats.since(before),
                    telemetry=tel.snapshot().since(tel_before),
                )
            )
            print(f"\n=== {name} ({elapsed:.0f}s) ===", file=out)
            print(result.format(), file=out)
            out.flush()
    finally:
        tel.enabled = was_enabled
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--extensions",
        action="store_true",
        help=(
            "also run the beyond-the-paper ablations/extensions "
            "(appended to any explicit selection)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run at 1/5 scale for a fast sanity pass",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="also write the results as a Markdown report to PATH",
    )
    parser.add_argument(
        "--branches",
        type=int,
        default=None,
        help=(
            "override trace length (warm-up scales to one third); "
            "applied after --quick, so it wins over the 1/5 scaling"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("reference", "fast"),
        default=None,
        help=(
            "engine backend for every replay: the pure-Python reference "
            "loop (default) or the vectorized fast path (requires "
            "numpy; bit-identical results, see docs/fastpath.md)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan replay execution out over N worker processes",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist the replay cache on disk at PATH across runs",
    )
    parser.add_argument(
        "--executor",
        choices=("auto", "serial", "pool", "fleet"),
        default="auto",
        help=(
            "where pending jobs run: auto (pool when --jobs > 1), "
            "serial, pool, or the distributed fleet queue drained by "
            "'python -m repro.fleet worker' (fleet requires "
            "--cache-dir; see docs/distributed.md)"
        ),
    )
    parser.add_argument(
        "--fleet-queue",
        default=None,
        metavar="PATH",
        help=(
            "fleet work queue for --executor fleet "
            "(default <cache-dir>/fleet/queue.sqlite)"
        ),
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "run the verification suite (python -m repro.verify) first "
            "and abort if it fails; --quick selects the quick profile"
        ),
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const="telemetry.json",
        default=None,
        metavar="PATH",
        help=(
            "write the run's telemetry metrics document to PATH (default "
            "telemetry.json); observational only -- experiment numbers "
            "are unchanged (see docs/observability.md)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write the span/log event stream as JSON lines to PATH",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=(
            "profile each replay (cProfile hotspots plus per-span "
            "CPU/alloc attribution); with PATH, also write the profile "
            "document there (see docs/observability.md)"
        ),
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.verify:
        from repro.verify.cli import run_verification

        status = run_verification(
            "quick" if args.quick else "full", jobs=args.jobs
        )
        if status != 0:
            print(
                "\naborting: verification failed -- experiment numbers "
                "from this tree would not be trustworthy"
            )
            return status
    executor = args.executor
    if executor == "fleet":
        from repro.fleet import FleetExecutor, default_queue_path

        if args.cache_dir is None:
            parser.error(
                "--executor fleet requires --cache-dir (the shared disk "
                "cache is how fleet workers hand outcomes back)"
            )
        executor = FleetExecutor(
            args.fleet_queue or default_queue_path(args.cache_dir)
        )
    engine = configure_engine(
        max_workers=args.jobs,
        cache_dir=args.cache_dir,
        executor=executor,
    )
    settings = resolve_settings(
        quick=args.quick, branches=args.branches, backend=args.backend
    )
    if args.telemetry or args.trace_out or args.profile is not None:
        telemetry.enable()
        if args.trace_out:
            telemetry.set_trace_path(args.trace_out)
    if args.profile is not None:
        telemetry.enable_profiling()
        telemetry.reset_profile()

    overall = engine.stats.snapshot()
    report = run_all(
        settings, names=args.experiments or None, extensions=args.extensions
    )
    delta = engine.stats.since(overall)
    print(
        f"\n{len(report)} experiments in {report.total_seconds:.0f}s "
        f"({delta.executed} replays executed, "
        f"{delta.parallel_executed} in parallel; {delta.format()})"
    )
    if args.markdown:
        from repro.analysis.report import write_report

        write_report(
            report,
            args.markdown,
            title="Reproduction report",
            preamble=(
                f"Generated by `python -m repro.experiments` at "
                f"{settings.n_branches} branches per benchmark, "
                f"seed {settings.seed}."
            ),
            records=report.records,
        )
        print("\nwrote Markdown report to " + args.markdown)
    if args.telemetry:
        print(
            "\nwrote telemetry metrics to "
            + telemetry.write_metrics(args.telemetry)
        )
    if args.profile is not None:
        if args.profile:
            from repro.telemetry.profile import write_profile

            write_profile(args.profile)
            print("wrote profile document to " + args.profile)
        telemetry.disable_profiling()
    if args.trace_out:
        telemetry.close_trace()
        print("wrote telemetry trace to " + args.trace_out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
