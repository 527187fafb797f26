"""Segmented replay: a checkpointed segment chain through the segment cache.

One :class:`~repro.engine.job.SimJob` with ``segment_size`` set replays
as a chain of fixed ``[start, stop)`` segments, segment k starting from
segment k-1's outgoing checkpoint:

- :class:`ReplayCheckpoint` -- the bit-exact replay state at a segment
  boundary, with a backend-independent content digest;
- :func:`segment_fingerprint` -- the content address of one segment
  replay, chained on the *incoming* checkpoint digest, so extending a
  trace or changing the warm-up re-executes only the dirty segments;
- :class:`SegmentExecutor` -- runs consecutive segments of one job from
  checkpoints on either backend, with exact fast-to-reference fallback;
- :func:`replay_segmented` -- folds the chain in order through a
  :class:`~repro.engine.cache.SegmentCache`.

Checkpoints are built on the components' ``checkpoint()``/``restore()``
protocol (canonical state tuples), so a resumed chain is bit-identical
to a monolithic replay -- the property the ``segmented`` verify layer
enforces across adversarial cut points on both backends.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import telemetry
from repro.engine.job import FINGERPRINT_SCHEMA, ReplayOutcome, SimJob
from repro.trace.segments import segment_bounds

__all__ = [
    "CHECKPOINT_WINDOW",
    "ReplayCheckpoint",
    "segment_fingerprint",
    "SegmentExecutor",
    "replay_segmented",
]

#: Trailing context retained by a checkpoint: the last this-many branch
#: outcomes (history word) and addresses (path).  64 covers every
#: registered component -- reference history registers are capped at 64
#: bits and the path perceptron at 64 path entries.
CHECKPOINT_WINDOW = 64

_WINDOW_MASK = (1 << CHECKPOINT_WINDOW) - 1


@dataclass(frozen=True)
class ReplayCheckpoint:
    """Bit-exact replay state at a segment boundary.

    Attributes:
        position: Number of branches retired before this point.
        predictor_state: Predictor ``checkpoint()`` tuple (``None`` at
            position 0: fresh components need no restore).
        estimator_state: Estimator ``checkpoint()`` tuple (ditto).
        history_bits: The last :data:`CHECKPOINT_WINDOW` branch
            outcomes, bit 0 most recent (zero-filled while fewer
            branches have retired, matching a fresh history register).
        path: The last :data:`CHECKPOINT_WINDOW` branch addresses in
            chronological order (most recent last).

    ``history_bits`` and ``path`` duplicate context already inside the
    component states; they exist so the fast backend can seed its
    columnar precomputation (per-branch history words, path matrices)
    without decoding component-specific tuples.
    """

    position: int
    predictor_state: Optional[tuple]
    estimator_state: Optional[tuple]
    history_bits: int
    path: Tuple[int, ...]

    @classmethod
    def initial(cls) -> "ReplayCheckpoint":
        """The start-of-trace checkpoint (fresh components)."""
        return cls(
            position=0,
            predictor_state=None,
            estimator_state=None,
            history_bits=0,
            path=(),
        )

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical checkpoint encoding.

        Backend-independent by construction: both backends produce the
        same canonical state tuples (enforced by the fastpath verify
        layer), so chains interleave cache entries freely.
        """
        canonical = (
            "checkpoint",
            self.position,
            self.predictor_state,
            self.estimator_state,
            self.history_bits,
            self.path,
        )
        return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


def segment_fingerprint(
    job: SimJob, start: int, stop: int, incoming_digest: str
) -> str:
    """Content address of one segment replay within a job's chain.

    Keyed by what determines the segment's events and outgoing
    checkpoint: the trace coordinates (benchmark, seed, ``[start,
    stop)`` -- generator prefixes are length-stable, so ``n_branches``
    is deliberately absent), the component specs, the backend, and the
    incoming checkpoint digest.  ``warmup`` and ``collect_outputs`` are
    also absent: segments cache all events, and those knobs apply at
    merge time -- so a job re-run with a different warm-up or a longer
    trace replays only its genuinely dirty segments.
    """
    canonical = (
        "segment",
        FINGERPRINT_SCHEMA,
        job.benchmark,
        job.seed,
        start,
        stop,
        job.predictor.canonical(),
        job.estimator.canonical(),
        job.policy.canonical(),
        job.backend,
        incoming_digest,
    )
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


class _ReferenceRunner:
    """A live reference front end positioned somewhere in the chain.

    Consecutive segment misses reuse the live components (no
    restore churn); after a cache hit advances the chain past the
    runner's position, the next miss rebuilds from the checkpoint.
    """

    def __init__(self, job: SimJob, checkpoint: ReplayCheckpoint):
        from repro.core.frontend import FrontEnd

        self.frontend = FrontEnd(
            job.predictor.build(),
            job.estimator.build(),
            job.policy.build(),
        )
        if checkpoint.position:
            self.frontend.predictor.restore(checkpoint.predictor_state)
            self.frontend.estimator.restore(checkpoint.estimator_state)
        self.position = checkpoint.position
        self.history = checkpoint.history_bits
        self.path: List[int] = list(checkpoint.path)

    def run_segment(self, records, stop: int):
        """Process one segment; returns ``(events, out_checkpoint)``."""
        frontend = self.frontend
        history = self.history
        path = self.path
        events = []
        for record in records:
            events.append(frontend.process(record))
            history = (
                (history << 1) | (1 if record.taken else 0)
            ) & _WINDOW_MASK
            path.append(record.pc)
        if len(path) > CHECKPOINT_WINDOW:
            del path[:-CHECKPOINT_WINDOW]
        self.position = stop
        self.history = history
        checkpoint = ReplayCheckpoint(
            position=stop,
            predictor_state=frontend.predictor.checkpoint(),
            estimator_state=frontend.estimator.checkpoint(),
            history_bits=history,
            path=tuple(path),
        )
        return events, checkpoint


def _run_segment_fast(job, segment, stop: int, checkpoint: ReplayCheckpoint):
    """One fast-backend segment; returns ``(events, out_checkpoint)``."""
    from repro.fastpath.driver import replay_segment

    events, predictor_state, estimator_state, history, path = replay_segment(
        job,
        segment,
        checkpoint.predictor_state,
        checkpoint.estimator_state,
        checkpoint.history_bits,
        checkpoint.path,
    )
    return events, ReplayCheckpoint(
        position=stop,
        predictor_state=predictor_state,
        estimator_state=estimator_state,
        history_bits=history,
        path=path,
    )


class SegmentExecutor:
    """Executes segments of one job from checkpoints, either backend.

    Encapsulates the two stateful concerns of a chain: the live
    reference runner reused across consecutive segments (rebuilt
    whenever the chain position jumps past it), and the exact
    fast-to-reference fallback -- a runtime
    :class:`~repro.fastpath.FastPathUnsupported` rejection re-runs the
    same segment on the reference loop from the same incoming
    checkpoint, so the hand-off never perturbs the chain.

    ``fell_back`` records whether any executed segment ran on the
    reference loop while the job asked for the fast backend; callers
    use it to report the outcome's executing backend honestly.
    """

    def __init__(self, job: SimJob):
        self.job = job
        self.fell_back = False
        self._runner: Optional[_ReferenceRunner] = None
        self._use_fast = False
        if job.backend == "fast":
            from repro import fastpath

            self._use_fast = fastpath.supports(job)
            if not self._use_fast:
                self.fell_back = True
                tel = telemetry.get_registry()
                if tel.enabled:
                    tel.counter(
                        "fastpath_fallbacks_total",
                        reason=fastpath.unsupported_reason(job) or "unknown",
                    ).inc()

    def run(self, segment, stop: int, checkpoint: ReplayCheckpoint):
        """Execute one segment; returns ``(events, out_checkpoint, backend)``.

        ``backend`` names the loop that actually produced the events
        (``"fast"`` or ``"reference"``), independent of what the job
        requested.
        """
        if self._use_fast:
            from repro import fastpath

            try:
                events, out = _run_segment_fast(
                    self.job, segment, stop, checkpoint
                )
                return events, out, "fast"
            except fastpath.FastPathUnsupported:
                # Runtime rejection (e.g. oversized pcs, malformed
                # checkpoint tuples): finish on the reference loop --
                # checkpoints are backend-independent, so the hand-off
                # is exact.
                tel = telemetry.get_registry()
                if tel.enabled:
                    tel.counter(
                        "fastpath_fallbacks_total", reason="runtime"
                    ).inc()
                self._use_fast = False
                self.fell_back = True
        if self._runner is None or self._runner.position != checkpoint.position:
            self._runner = _ReferenceRunner(self.job, checkpoint)
        events, out = self._runner.run_segment(segment, stop)
        return events, out, "reference"


def replay_segmented(
    job: SimJob, trace, cache=None
) -> Tuple[ReplayOutcome, ReplayCheckpoint]:
    """Replay ``job`` segment by segment through the segment cache.

    Segment k starts from segment k-1's outgoing checkpoint; cache hits
    skip execution entirely.  Returns ``(outcome, final_checkpoint)``:
    the outcome is bit-identical to the monolithic replay of the same
    job (events and result cover the post-warm-up tail), and the final
    checkpoint carries the end-of-trace component states for callers
    that chain further.
    """
    assert job.segment_size is not None
    from repro.core.frontend import FrontEndResult, aggregate_event
    from repro.engine.cache import SegmentCache

    if cache is None:
        # Cacheless fallback (e.g. an ad-hoc engine-less call): the
        # chain still runs, it just cannot share prefixes across jobs.
        cache = SegmentCache()
    tel = telemetry.get_registry()
    bounds = segment_bounds(job.n_branches, job.segment_size)
    executor = SegmentExecutor(job)
    checkpoint = ReplayCheckpoint.initial()
    all_events: List = []
    with telemetry.trace_span("engine.segmented", segments=len(bounds)):
        for index, (start, stop) in enumerate(bounds):
            with telemetry.trace_span("engine.segment", index=index) as span:
                fingerprint = segment_fingerprint(
                    job, start, stop, checkpoint.digest
                )
                hit, tier = cache.get_tiered(fingerprint)
                span.note(cache=tier or "miss")
                if hit is not None:
                    events, checkpoint = hit
                else:
                    events, checkpoint, backend = executor.run(
                        trace.slice(start, stop), stop, checkpoint
                    )
                    cache.put(fingerprint, events, checkpoint)
                    if tel.enabled:
                        tel.counter(
                            "engine_segments_total", backend=backend
                        ).inc()
                all_events.extend(events)

    result = FrontEndResult()
    events_tail = all_events[job.warmup:]
    for event in events_tail:
        aggregate_event(result, event, job.collect_outputs)
    backend = (
        "fast" if (job.backend == "fast" and not executor.fell_back) else "reference"
    )
    return (
        ReplayOutcome(events=events_tail, result=result, backend=backend),
        checkpoint,
    )
