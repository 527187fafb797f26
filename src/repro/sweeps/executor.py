"""Sweep execution against the result store.

One pass over the DAG, idempotent against the store so a crashed or
killed sweep resumes by re-running the same command.  The jobs without
a valid stored outcome are read once up front
(``store.missing(dag.job_list())``); then, for each experiment node in
order:

1. **Record.**  When the node's record is missing, the experiment's
   ``run()`` submits its jobs to the engine (normal dedup, fan-out and
   caching apply) while an ``Engine.result_sink`` persists each
   executed outcome *as it lands*, so an interrupt mid-batch loses only
   in-flight jobs.  The result is stored as structured rows plus
   formatted text, keyed by :func:`repro.sweeps.spec.record_key`, and
   its block is printed to ``stream``.
2. **Jobs.**  Any of the node's jobs the store still lacks -- served
   from an engine cache rather than executed, or behind a record that
   was already stored (a corrupt row, a deleted store) -- go through
   ``engine.run`` and are persisted, so the store heals.

Each outcome is persisted while the experiment that needs it runs, so
no job is replayed a second time just to reach the store, and replays
fan out one experiment batch at a time.

Rendering (:func:`render_from_store`) rebuilds the Markdown report
purely from stored records through the same
:func:`repro.analysis.report.render_report` code path as a fresh run,
so the two are bit-identical (asserted in tests/test_sweeps.py).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import telemetry
from repro.analysis.export import rows_from_result
from repro.analysis.report import render_report
from repro.engine import get_engine
from repro.experiments.common import ExperimentSettings
from repro.results import ResultStore
from repro.telemetry.spans import log_event

from repro.sweeps.dag import ExperimentNode, SweepDag
from repro.sweeps.spec import SweepSpec, settings_dict

__all__ = [
    "StoredResult",
    "SweepOutcome",
    "render_from_store",
    "report_markdown",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepOutcome:
    """What one ``run_sweep`` call did (all counts post-dedup)."""

    spec: str
    planned_jobs: int
    executed_jobs: int
    experiments_run: int
    experiments_cached: int
    seconds: float

    def format(self) -> str:
        return (
            f"sweep[{self.spec}]: {self.planned_jobs} unique jobs planned, "
            f"{self.executed_jobs} executed, "
            f"{self.experiments_run} experiment(s) rendered "
            f"({self.experiments_cached} already stored) "
            f"in {self.seconds:.1f}s"
        )


class StoredResult:
    """Store-backed stand-in for a live experiment result object.

    Exposes exactly the surface :func:`render_report` consumes --
    ``rows`` (structured rows, or ``None`` to force the formatted-text
    fallback) and ``format()`` -- so a report rendered from the store
    goes through the identical code path as one rendered from fresh
    result objects.
    """

    def __init__(self, record):
        self._record = record

    @property
    def rows(self) -> Optional[List[dict]]:
        return self._record.rows

    def format(self) -> str:
        return self._record.formatted


def run_sweep(
    spec: SweepSpec,
    store: ResultStore,
    base: ExperimentSettings,
    stream=None,
) -> SweepOutcome:
    """Execute one sweep to completion against the store, in one pass.

    Prints ``=== <section> (<N>s) ===`` and the result's ``format()``
    to ``stream`` (when given) for every record it renders.
    """
    start = time.monotonic()
    dag = SweepDag.from_spec(spec, base)
    engine = get_engine()
    executed_before = engine.stats.executed
    experiments_run = 0
    with telemetry.trace_span("sweep", spec=spec.name):
        # Jobs without a valid stored outcome; each leaves the map the
        # moment the store holds it.
        todo = {job.fingerprint: job for job in store.missing(dag.job_list())}
        log_event(
            "sweep_plan",
            level=logging.INFO,
            message="sweep expanded",
            spec=spec.name,
            unique_jobs=len(dag.jobs),
            submitted_jobs=dag.submitted_jobs,
            missing_jobs=len(todo),
            experiments=len(dag.experiments),
        )

        def persist(job, outcome) -> None:
            if job.fingerprint in todo:
                store.put_job(job, outcome.canonical_metrics())
                del todo[job.fingerprint]

        engine.result_sink = persist
        try:
            for node in dag.experiments:
                if store.get_experiment(node.key) is None:
                    _render(node, store, stream)
                    experiments_run += 1
                # Outcomes served from the engine's caches never reach
                # the sink; persist them so the store heals.
                pending = [
                    todo[fp] for fp in node.job_fingerprints if fp in todo
                ]
                if pending:
                    outcomes = engine.run(pending)
                    for job, outcome in zip(pending, outcomes):
                        persist(job, outcome)
        finally:
            engine.result_sink = None
    return SweepOutcome(
        spec=spec.name,
        planned_jobs=len(dag.jobs),
        executed_jobs=engine.stats.executed - executed_before,
        experiments_run=experiments_run,
        experiments_cached=len(dag.experiments) - experiments_run,
        seconds=time.monotonic() - start,
    )


def _render(node: ExperimentNode, store: ResultStore, stream) -> None:
    """Run one experiment node, store its record and print its block."""
    from repro.experiments.runner import EXPERIMENTS

    started = time.monotonic()
    with telemetry.trace_span(
        "sweep.experiment", experiment=node.experiment, instance=node.instance
    ):
        result = EXPERIMENTS[node.experiment](node.settings)
    seconds = time.monotonic() - started
    try:
        rows = rows_from_result(result)
    except TypeError:
        rows = None
    formatted = result.format()
    store.put_experiment(
        key=node.key,
        experiment=node.experiment,
        settings=settings_dict(node.settings),
        rows=rows,
        formatted=formatted,
    )
    if stream is not None:
        print(f"\n=== {node.section} ({seconds:.0f}s) ===", file=stream)
        print(formatted, file=stream)
        stream.flush()


def _preamble(spec: SweepSpec, base: ExperimentSettings) -> str:
    return (
        f"Sweep `{spec.name}`: {spec.description or 'no description'}. "
        f"{len(spec.experiments)} experiment(s) x "
        f"{len(spec.instances)} instance(s), base sizing "
        f"{base.n_branches} branches / {base.warmup} warm-up, "
        f"seed {base.seed}, backend {base.backend}."
    )


def report_markdown(
    spec: SweepSpec, base: ExperimentSettings, results: Dict[str, object]
) -> str:
    """Render the sweep report for a section->result mapping.

    Shared by the fresh-run and from-store paths, so both produce the
    same bytes for the same underlying rows.
    """
    return render_report(
        results,
        title=f"Sweep report: {spec.name}",
        preamble=_preamble(spec, base),
    )


def render_from_store(
    spec: SweepSpec, store: ResultStore, base: ExperimentSettings
) -> str:
    """Rebuild the sweep's Markdown report purely from the store.

    Raises ``KeyError`` naming the missing sections when the store does
    not (yet) hold every record the spec expands to.
    """
    dag = SweepDag.from_spec(spec, base)
    results: Dict[str, object] = {}
    missing = []
    for node in dag.experiments:
        record = store.get_experiment(node.key)
        if record is None:
            missing.append(node.section)
            continue
        results[node.section] = StoredResult(record)
    if missing:
        raise KeyError(
            f"store {store.path!r} is missing {len(missing)} record(s) "
            f"for spec {spec.name!r}: {', '.join(missing)} "
            "(run the sweep first)"
        )
    return report_markdown(spec, base, results)
