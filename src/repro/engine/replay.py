"""One replay core: every front-end replay steps through a :class:`Replayer`.

Replaying a branch trace through predictor, confidence estimator and
policy is one operation -- step some records from an incoming state to
their events and an outgoing state -- with a reference and a fast
implementation.  This module holds it and the drivers over it:

- :class:`Replayer` -- one job's replay state.  It is the only code
  that picks the backend: it checks fast-path support and counts the
  fallback ``reason``, and on a runtime
  :class:`~repro.fastpath.FastPathUnsupported` it re-runs the failing
  step on the reference loop from the same incoming state.  It builds
  and restores the one reference front end, and builds the outgoing
  :class:`ReplayCheckpoint` only when asked.
- :func:`_replay_trace_impl` -- monolithic replay, the whole trace as
  one step (or the segment chain, for jobs with ``segment_size`` set).
- :func:`replay_segmented` -- the segment chain: one step per fixed
  ``[start, stop)`` segment, each cached under
  :func:`segment_fingerprint`, which chains on the *incoming*
  checkpoint digest, so extending a trace or changing the warm-up
  re-executes only the dirty segments.
- :meth:`repro.engine.Engine.stream` steps lazily pulled segments and
  keeps no events.

Checkpoints are built on the components' ``checkpoint()``/``restore()``
protocol (canonical state tuples), so a resumed chain is bit-identical
to a monolithic replay -- the property the ``segmented`` verify layer
enforces across adversarial cut points on both backends.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import telemetry
from repro.engine.job import FINGERPRINT_SCHEMA, ReplayOutcome, SimJob
from repro.trace.segments import segment_bounds

__all__ = [
    "CHECKPOINT_WINDOW",
    "ReplayCheckpoint",
    "Replayer",
    "segment_fingerprint",
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


def _count_fallback(reason: str) -> None:
    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("fastpath_fallbacks_total", reason=reason).inc()


def _count_replay(backend: str, started: float) -> None:
    """Count and time one finished replay under the backend that ran it."""
    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("engine_replays_total", backend=backend).inc()
        tel.histogram("engine_replay_seconds", backend=backend).observe(
            time.monotonic() - started
        )


class Replayer:
    """One job's replay, stepped from its current state.

    ``backend`` names the loop that produced every step so far.  A job
    asking for ``backend="fast"`` starts fast when
    :func:`repro.fastpath.supports` accepts it, and drops to the
    reference loop for good on the first runtime rejection; the
    rejected step re-runs from its own incoming state, so the hand-off
    is exact.
    """

    def __init__(self, job: SimJob):
        self.job = job
        #: Branches retired so far (or the resumed checkpoint's position).
        self.position = 0
        self.backend = "reference"
        # The exact state at ``position`` when known: always after a
        # fast step, after a reference step only once asked for.
        self._checkpoint: Optional[ReplayCheckpoint] = ReplayCheckpoint.initial()
        self._frontend = None  # live reference front end at ``position``
        # Reference history/path window as of the start of the last
        # reference step; that step's records (``_tail``) fold in only
        # when the window is needed.
        self._window: Tuple[int, Tuple[int, ...]] = (0, ())
        self._tail = None
        if job.backend == "fast":
            from repro import fastpath

            if fastpath.supports(job):
                self.backend = "fast"
            else:
                _count_fallback(fastpath.unsupported_reason(job) or "unknown")

    def run(self, trace):
        """Replay a whole trace as this replayer's only step.

        Returns ``(events, result)`` under the job's warm-up.  The fast
        backend takes its whole-trace entry :func:`repro.fastpath.replay`,
        which keeps no outgoing state: nothing follows.
        """
        return self._step(trace, self.job.warmup, whole=True)

    def step(self, records, warmup: int = 0):
        """Replay ``records`` from the current state; ``(events, result)``.

        Both cover the records after the first ``warmup``.
        """
        return self._step(records, warmup, whole=False)

    def _step(self, records, warmup, whole):
        if self.backend == "fast":
            from repro import fastpath

            try:
                if whole:
                    return fastpath.replay(self.job, records)
                return self._fast_step(records, warmup)
            except fastpath.FastPathUnsupported:
                # Runtime rejection (e.g. oversized pcs, a malformed
                # cached checkpoint): nothing moved, so the reference
                # loop re-runs this step from the same incoming state.
                _count_fallback("runtime")
                self.backend = "reference"
        return self._reference_step(records, warmup)

    def _fast_step(self, records, warmup):
        from repro.fastpath.driver import replay_segment

        cp = self._checkpoint
        state = None
        if cp.position:
            state = (
                cp.predictor_state, cp.estimator_state, cp.history_bits, cp.path
            )
        events, result, state = replay_segment(self.job, records, state, warmup)
        self.position += len(records)
        self._checkpoint = ReplayCheckpoint(self.position, *state)
        return events, result

    def _reference_step(self, records, warmup):
        from repro.core.frontend import FrontEndResult, aggregate_event

        process = self._live_frontend().process
        result = FrontEndResult()
        collect = self.job.collect_outputs
        events = []
        for i, record in enumerate(records):
            event = process(record)
            if i >= warmup:
                aggregate_event(result, event, collect)
                events.append(event)
        self.position += len(records)
        self._checkpoint = None
        self._tail = records
        return events, result

    def _live_frontend(self):
        """The reference front end at ``position``, built on first use."""
        if self._frontend is not None:
            self._fold_window()
            return self._frontend
        from repro.core.frontend import FrontEnd

        job = self.job
        cp = self._checkpoint
        frontend = FrontEnd(
            job.predictor.build(), job.estimator.build(), job.policy.build()
        )
        if cp.position:
            frontend.predictor.restore(cp.predictor_state)
            frontend.estimator.restore(cp.estimator_state)
        self._frontend = frontend
        self._window = (cp.history_bits, cp.path)
        return frontend

    def _fold_window(self) -> None:
        """Fold the last reference step's records into the window.

        Only a step's last :data:`CHECKPOINT_WINDOW` records reach it.
        """
        if self._tail is None:
            return
        history, path = self._window
        tail = self._tail[-CHECKPOINT_WINDOW:]
        for record in tail:
            history = ((history << 1) | (1 if record.taken else 0)) & _WINDOW_MASK
        path = tuple(path) + tuple(record.pc for record in tail)
        self._window = (history, path[-CHECKPOINT_WINDOW:])
        self._tail = None

    def resume(self, checkpoint: ReplayCheckpoint) -> None:
        """Continue from ``checkpoint``; a no-op when already at its position.

        Within one job's chain a position names one state: every
        segment's address chains on its incoming checkpoint digest.
        """
        if checkpoint.position != self.position:
            self.position = checkpoint.position
            self._checkpoint = checkpoint
            self._frontend = None
            self._tail = None

    def checkpoint(self) -> ReplayCheckpoint:
        """The exact state at ``position``, built on first request."""
        if self._checkpoint is None:
            self._fold_window()
            history, path = self._window
            frontend = self._frontend
            self._checkpoint = ReplayCheckpoint(
                position=self.position,
                predictor_state=frontend.predictor.checkpoint(),
                estimator_state=frontend.estimator.checkpoint(),
                history_bits=history,
                path=path,
            )
        return self._checkpoint


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
    replayer = Replayer(job)
    checkpoint = ReplayCheckpoint.initial()
    all_events: List = []
    with telemetry.trace_span("engine.segmented", segments=len(bounds)):
        for index, (start, stop) in enumerate(bounds):
            with telemetry.trace_span("engine.segment", index=index) as span:
                fingerprint = segment_fingerprint(
                    job, start, stop, checkpoint.digest
                )
                hit, tier = cache.lookup(fingerprint)
                span.note(cache=tier or "miss")
                if hit is not None:
                    events, checkpoint = hit
                else:
                    # Segments cache every event: warm-up applies below.
                    replayer.resume(checkpoint)
                    events, _ = replayer.step(trace.slice(start, stop))
                    checkpoint = replayer.checkpoint()
                    cache.put(fingerprint, events, checkpoint)
                    if tel.enabled:
                        tel.counter(
                            "engine_segments_total", backend=replayer.backend
                        ).inc()
                all_events.extend(events)

    result = FrontEndResult()
    events_tail = all_events[job.warmup:]
    for event in events_tail:
        aggregate_event(result, event, job.collect_outputs)
    return (
        ReplayOutcome(events=events_tail, result=result, backend=replayer.backend),
        checkpoint,
    )


def _replay_trace(job: SimJob, trace, segments=None) -> ReplayOutcome:
    """Replay a prepared trace (optionally under the cProfile hotspot
    accumulator -- ``--profile`` wraps every executed job here)."""
    from repro.telemetry import profile

    if profile.profiling_enabled():
        with profile.profile_block():
            return _replay_trace_impl(job, trace, segments)
    return _replay_trace_impl(job, trace, segments)


def _replay_trace_impl(job: SimJob, trace, segments=None) -> ReplayOutcome:
    """Replay a prepared trace through fresh spec-built components.

    Pure in the job description: no shared mutable state is read, which
    is what lets serial, parallel and cached execution agree bit for
    bit.  The whole trace is one :class:`Replayer` step; jobs with
    ``segment_size`` set replay as the checkpointed segment chain
    through ``segments`` (a :class:`~repro.engine.cache.SegmentCache`),
    bit-identical to the one-step replay.
    """
    started = time.monotonic()
    if job.segment_size is not None:
        outcome, _ = replay_segmented(job, trace, cache=segments)
    else:
        replayer = Replayer(job)
        events, result = replayer.run(trace)
        outcome = ReplayOutcome(
            events=events, result=result, backend=replayer.backend
        )
    _count_replay(outcome.backend, started)
    return outcome
