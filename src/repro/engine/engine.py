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

import time
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.engine.cache import (
    DEFAULT_EVENT_BUDGET,
    DEFAULT_TRACE_BUDGET,
    CacheStats,
    ReplayCache,
    SegmentCache,
    TraceCache,
)
from repro.engine.executor import EXECUTOR_NAMES, Executor, resolve_executor
from repro.engine.job import ReplayOutcome, SimJob
from repro.engine.replay import Replayer, _count_replay, _replay_trace

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


def _check_settings(max_workers, event_budget, executor) -> None:
    """Reject invalid engine settings; ``None`` means default/unchanged.

    The one check behind :class:`Engine` and both paths of
    :func:`configure_engine`.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if event_budget is not None and event_budget <= 0:
        raise ValueError(f"event_budget must be positive, got {event_budget}")
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
        segments: Optional[CacheStats] = None,
    ):
        self.replay = replay
        self.traces = traces
        self.executed = executed
        self.parallel_executed = parallel_executed
        self.segments = segments if segments is not None else CacheStats()

    def snapshot(self) -> "EngineStats":
        return EngineStats(
            self.replay.snapshot(),
            self.traces.snapshot(),
            self.executed,
            self.parallel_executed,
            self.segments.snapshot(),
        )

    def since(self, other: "EngineStats") -> "EngineStats":
        return EngineStats(
            self.replay.since(other.replay),
            self.traces.since(other.traces),
            self.executed - other.executed,
            self.parallel_executed - other.parallel_executed,
            self.segments.since(other.segments),
        )


class Engine:
    """Runs :class:`SimJob` s through the replay cache and executors.

    Args:
        max_workers: Process fan-out for :meth:`run`.  1 means
            in-process execution (still cached and deduplicated).
        event_budget: In-memory replay cache size, in cached events.
        cache_dir: Enables the on-disk replay cache at this directory.
        trace_budget: Trace cache size, in total dynamic branches.
        executor: Where pending (uncached) jobs run -- ``None`` (or
            ``"auto"``) for a pool when ``max_workers > 1`` and serial
            otherwise, ``"serial"``/``"pool"``, or an
            :class:`~repro.engine.executor.Executor` instance.
    """

    def __init__(
        self,
        max_workers: int = 1,
        event_budget: int = DEFAULT_EVENT_BUDGET,
        cache_dir: Optional[str] = None,
        trace_budget: int = DEFAULT_TRACE_BUDGET,
        executor=None,
    ):
        _check_settings(max_workers, event_budget, executor)
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
        self._replays = ReplayCache(event_budget, disk_dir=cache_dir)
        self._segments = SegmentCache(event_budget, disk_dir=cache_dir)
        self._traces = TraceCache(trace_budget)
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
            self._segments.stats,
        )

    def clear_cache(self) -> None:
        """Drop all in-memory cached replays, segments and traces."""
        self._replays.clear()
        self._segments.clear()
        self._traces.clear()

    def trace(self, name: str, n_branches: int, seed: int):
        """Generate (or reuse) one benchmark trace."""
        return self._traces.get(name, n_branches, seed)

    # -- execution --------------------------------------------------------

    def replay(self, job: SimJob) -> ReplayOutcome:
        """Run (or fetch) a single job."""
        return self.run([job])[0]

    def execute(self, job: SimJob) -> ReplayOutcome:
        """Replay ``job`` against this engine's trace and segment caches.

        The replay cache is not consulted: :meth:`run` looks jobs up
        before they reach an executor and stores what comes back.
        """
        return _replay_trace(
            job, self.trace(*job.trace_key), segments=self._segments
        )

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

    def stream(self, job: SimJob, segment_size: Optional[int] = None):
        """Replay ``job`` with bounded memory; aggregates, keeps no events.

        Pulls records lazily from the benchmark generator one segment
        at a time and steps one :class:`~repro.engine.replay.Replayer`
        over each, merging the step results and dropping the events,
        so peak memory is one segment regardless of
        ``job.n_branches`` -- the trace is never materialized and the
        trace cache is bypassed.  The returned
        :class:`~repro.core.frontend.FrontEndResult` is bit-identical
        to ``self.replay(job).result`` (generator prefixes are
        length-stable, and replay order is unchanged), and the replay
        counts under the backend that produced it.

        ``segment_size`` (at least 1) overrides the pull granularity
        (``None``: ``job.segment_size`` or 8192); it only bounds memory,
        never changes the result.
        """
        from itertools import islice

        from repro.core.frontend import FrontEndResult
        from repro.trace.benchmarks import benchmark_record_stream
        from repro.trace.segments import iter_record_segments

        if segment_size is None:
            segment_size = job.segment_size or 8192
        started = time.monotonic()
        tel = telemetry.get_registry()
        with telemetry.trace_span(
            "engine.stream", job=job.benchmark, segment_size=segment_size
        ):
            records = islice(
                benchmark_record_stream(job.benchmark, job.seed),
                job.n_branches,
            )
            replayer = Replayer(job)
            result = FrontEndResult()
            for segment in iter_record_segments(records, segment_size):
                warmup = max(0, job.warmup - replayer.position)
                _, part = replayer.step(segment, warmup)
                result = result.merge(part)
                if tel.enabled:
                    tel.counter("engine_stream_segments_total").inc()
        _count_replay(replayer.backend, started)
        return result

    @staticmethod
    def simulate(events, config):
        """Run the pipeline timing model over a prepared event stream."""
        from repro.pipeline.simulator import PipelineSimulator

        return PipelineSimulator(config).simulate(iter(events))


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
    event_budget: Optional[int] = None,
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
    _check_settings(max_workers, event_budget, executor)
    if reset or _default_engine is None:
        _default_engine = Engine(
            max_workers=1 if max_workers is None else max_workers,
            event_budget=(
                DEFAULT_EVENT_BUDGET if event_budget is None else event_budget
            ),
            cache_dir=cache_dir,
            executor=executor,
        )
        return _default_engine
    engine = _default_engine
    if max_workers is not None:
        engine.max_workers = max_workers
    if cache_dir is not None:
        engine._replays.disk_dir = cache_dir
        engine._segments.disk_dir = cache_dir
    if event_budget is not None:
        engine._replays._lru.budget = event_budget
        engine._segments._lru.budget = event_budget
    if executor is not None:
        engine.executor = executor
    return engine
