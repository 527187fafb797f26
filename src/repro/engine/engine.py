"""Execution engine: cached, optionally parallel simulation runs.

:class:`Engine` is the single choke point for all front-end replay
work.  ``Engine.run(jobs)`` deduplicates the job list by fingerprint,
serves repeats from the replay cache (memory, then disk), and hands the
remainder to an :class:`~repro.engine.executor.Executor` -- in-process
(serial) or fanned out over a local process pool -- returning outcomes
in the order the jobs were given.  Replay is fully deterministic in the
job description, so serial, parallel and cached runs of the same job
produce bit-identical events and results; the execution mode is purely
a throughput knob.

A module-level default engine serves the experiment suite; configure it
once from the CLI (``--jobs``, ``--cache-dir``) via
:func:`configure_engine`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.engine.cache import (
    DEFAULT_EVENT_BUDGET,
    DEFAULT_TRACE_BUDGET,
    CacheStats,
    ReplayCache,
    TraceCache,
)
from repro.engine.executor import EXECUTOR_NAMES, Executor, resolve_executor
from repro.engine.job import ReplayOutcome, SimJob
from repro.engine.replay import _replay_trace

__all__ = [
    "Engine",
    "EngineStats",
    "execute_job",
    "get_engine",
    "configure_engine",
]


def execute_job(job: SimJob) -> ReplayOutcome:
    """Run one job start to finish (also the worker-process entry).

    Worker processes lazily create their own default engine, so traces
    are generated once per (worker, trace key) and reused across the
    jobs that land on that worker.
    """
    return get_engine().execute(job)


def _traced_execute_job(job: SimJob) -> ReplayOutcome:
    """Worker-side task: one job under its ``worker.replay`` span.

    The executor layer owns the telemetry bootstrap and shipment
    (:mod:`repro.telemetry.workers`); this wrapper only contributes the
    span that names the work, so pool timelines show one
    ``worker.replay`` lane entry per executed job.
    """
    with telemetry.trace_span(
        "worker.replay",
        benchmark=job.benchmark,
        n_branches=job.n_branches,
        fingerprint=job.fingerprint[:12],
    ) as span:
        outcome = execute_job(job)
        span.note(backend=outcome.backend)
    return outcome


def _check_settings(max_workers, executor) -> None:
    """Reject invalid engine settings; ``None`` means default/unchanged.

    The one check behind :class:`Engine` and both paths of
    :func:`configure_engine`.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if not (
        executor is None
        or isinstance(executor, Executor)
        or executor in EXECUTOR_NAMES
    ):
        raise ValueError(
            f"executor must be one of {EXECUTOR_NAMES} or an "
            f"Executor instance, got {executor!r}"
        )


class EngineStats:
    """Replay + trace cache counters plus execution tallies."""

    def __init__(
        self,
        replay: CacheStats,
        traces: CacheStats,
        executed: int = 0,
        parallel_executed: int = 0,
    ):
        self.replay = replay
        self.traces = traces
        self.executed = executed
        self.parallel_executed = parallel_executed

    def snapshot(self) -> "EngineStats":
        return EngineStats(
            self.replay.snapshot(),
            self.traces.snapshot(),
            self.executed,
            self.parallel_executed,
        )

    def since(self, other: "EngineStats") -> "EngineStats":
        return EngineStats(
            self.replay.since(other.replay),
            self.traces.since(other.traces),
            self.executed - other.executed,
            self.parallel_executed - other.parallel_executed,
        )


class Engine:
    """Runs :class:`SimJob` s through the replay cache and executors.

    Args:
        max_workers: Process fan-out for :meth:`run`.  1 means
            in-process execution (still cached and deduplicated).
        cache_dir: Enables the on-disk replay cache at this directory.
        executor: Where pending (uncached) jobs run -- ``None`` (or
            ``"auto"``) for a pool when ``max_workers > 1`` and serial
            otherwise, ``"serial"``/``"pool"``, or an
            :class:`~repro.engine.executor.Executor` instance.

    The in-memory caches hold ``DEFAULT_EVENT_BUDGET`` replayed events
    and ``DEFAULT_TRACE_BUDGET`` trace branches.
    """

    def __init__(
        self,
        max_workers: int = 1,
        cache_dir: Optional[str] = None,
        executor=None,
    ):
        _check_settings(max_workers, executor)
        self.max_workers = max_workers
        self.executor = executor
        #: Optional ``callable(job, outcome)`` invoked once per
        #: *executed* job (never for cache hits), as each outcome
        #: lands -- not after the whole batch.  The sweep layer points
        #: this at a :class:`~repro.results.store.ResultStore` so a
        #: crashed run keeps every completed job.  Sink errors
        #: propagate: a sweep must not report success while silently
        #: dropping results.
        self.result_sink = None
        self._replays = ReplayCache(DEFAULT_EVENT_BUDGET, disk_dir=cache_dir)
        self._traces = TraceCache(DEFAULT_TRACE_BUDGET)
        self._executed = 0
        self._parallel_executed = 0

    # -- caching ----------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        return EngineStats(
            self._replays.stats,
            self._traces.stats,
            self._executed,
            self._parallel_executed,
        )

    def trace(self, name: str, n_branches: int, seed: int):
        """Generate (or reuse) one benchmark trace."""
        return self._traces.get(name, n_branches, seed)

    # -- execution --------------------------------------------------------

    def replay(self, job: SimJob) -> ReplayOutcome:
        """Run (or fetch) a single job."""
        return self.run([job])[0]

    def execute(self, job: SimJob) -> ReplayOutcome:
        """Replay ``job`` against this engine's trace cache.

        The replay cache is not consulted: :meth:`run` looks jobs up
        before they reach an executor and stores what comes back.
        """
        return _replay_trace(job, self.trace(*job.trace_key))

    def run(self, jobs: Sequence[SimJob]) -> List[ReplayOutcome]:
        """Execute a batch of jobs; outcomes align with ``jobs`` order.

        Duplicate jobs (same fingerprint) are executed once.  Cache
        lookups happen first; only genuinely new work reaches the
        executor.  With ``max_workers > 1`` and more than one new job,
        execution fans out across processes -- results are collected in
        submission order, so parallelism never perturbs output order.
        """
        tel = telemetry.get_registry()
        with telemetry.trace_span("engine.run", jobs=len(jobs)):
            fingerprints = [job.fingerprint for job in jobs]
            resolved: Dict[str, ReplayOutcome] = {}
            pending: List[SimJob] = []
            for job, fp in zip(jobs, fingerprints):
                if fp in resolved:
                    continue
                cached = self._replays.get(fp)
                if cached is not None:
                    resolved[fp] = cached
                else:
                    resolved[fp] = None  # placeholder keeps dedup order
                    pending.append(job)
            if tel.enabled:
                tel.counter("engine_jobs_submitted_total").inc(len(jobs))
                tel.counter("engine_jobs_deduplicated_total").inc(
                    len(jobs) - len(resolved)
                )

            if pending:
                executor = resolve_executor(self.executor, self.max_workers)
                distributed = executor.will_distribute(len(pending))
                # Outcomes land one at a time, in submission order --
                # the executor owns worker bootstrap and telemetry
                # shipment, _finish owns caching and the result sink.
                for job, outcome in executor.execute(pending, self):
                    self._finish(job, outcome, resolved)
                if distributed:
                    self._parallel_executed += len(pending)
                    if tel.enabled:
                        tel.counter("engine_jobs_parallel_total").inc(
                            len(pending)
                        )

            return [resolved[fp] for fp in fingerprints]

    def _finish(self, job: SimJob, outcome: ReplayOutcome, resolved) -> None:
        """Land one executed outcome: cache, tally, and sink it.

        Called per outcome *as it completes* (not after the batch), so
        an interrupted run keeps everything finished so far -- the
        crash-resume contract of the sweep layer.
        """
        fp = job.fingerprint
        resolved[fp] = outcome
        self._replays.put(fp, outcome)
        self._executed += 1
        if self.result_sink is not None:
            self.result_sink(job, outcome)


#: The process-wide default engine (lazily created).
_default_engine: Optional[Engine] = None


def get_engine() -> Engine:
    """The default engine, creating it on first use."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine


def configure_engine(
    max_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    executor=None,
    reset: bool = False,
) -> Engine:
    """Create or reconfigure the default engine.

    Passing ``reset=True`` replaces the engine outright (dropping its
    in-memory caches); otherwise existing caches are preserved and only
    the requested knobs change.  ``None`` means the default (on reset)
    or unchanged; invalid settings raise ``ValueError`` on either path
    before anything changes.
    """
    global _default_engine
    _check_settings(max_workers, executor)
    if reset or _default_engine is None:
        _default_engine = Engine(
            max_workers=1 if max_workers is None else max_workers,
            cache_dir=cache_dir,
            executor=executor,
        )
        return _default_engine
    engine = _default_engine
    if max_workers is not None:
        engine.max_workers = max_workers
    if cache_dir is not None:
        engine._replays.disk_dir = cache_dir
    if executor is not None:
        engine.executor = executor
    return engine
